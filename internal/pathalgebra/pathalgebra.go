// Package pathalgebra generalizes the separator engine to arbitrary
// selective semirings, realizing the paper's comment (iii): "Our algorithm
// is applicable to general path algebra problems over semirings." The same
// three-phase structure as the min-plus engine is used — per-leaf closures,
// Algorithm 4.1 node processing (H_S closure + 3-limited boundary step),
// and the Section 3.2 level-scheduled relaxation — but every min/+ is
// replaced by the semiring's Plus/Times.
//
// Requirements on the semiring: Plus idempotent (selective) and the closure
// of every cycle weight equal to One ("stable" semirings: min-plus with
// nonnegative cycles, boolean, bottleneck, reliability with probabilities
// ≤ 1, minimax). Under stability the Floyd-Warshall recurrence computes the
// exact path closure.
package pathalgebra

import (
	"fmt"

	"sepsp/internal/core"
	"sepsp/internal/semiring"
	"sepsp/internal/separator"
)

// Edge is a directed edge with a semiring weight.
type Edge[T any] struct {
	From, To int
	W        T
}

// Engine is a preprocessed path-algebra oracle over one semiring.
type Engine[T any] struct {
	sr    semiring.Semiring[T]
	n     int
	tree  *separator.Tree
	edges []Edge[T] // original edges
	plus  []Edge[T] // shortcut edges E+

	// buckets holds the query schedule's level buckets, indexed by the
	// bucket ids of core.LevelBucket and walked in core.PhaseOf order.
	buckets [][]Edge[T]
}

// dense is a tiny generic matrix over the semiring.
type dense[T any] struct {
	r, c int
	a    []T
}

func newDense[T any](sr semiring.Semiring[T], r, c int) *dense[T] {
	a := make([]T, r*c)
	zero := sr.Zero()
	for i := range a {
		a[i] = zero
	}
	return &dense[T]{r: r, c: c, a: a}
}

func (d *dense[T]) at(i, j int) T     { return d.a[i*d.c+j] }
func (d *dense[T]) set(i, j int, v T) { d.a[i*d.c+j] = v }

// closureFW computes the reflexive path closure in place.
func closureFW[T any](sr semiring.Semiring[T], d *dense[T]) {
	n := d.r
	one := sr.One()
	for i := 0; i < n; i++ {
		d.set(i, i, sr.Plus(d.at(i, i), one))
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d.at(i, k)
			if sr.Eq(dik, sr.Zero()) {
				continue
			}
			for j := 0; j < n; j++ {
				d.set(i, j, sr.Plus(d.at(i, j), sr.Times(dik, d.at(k, j))))
			}
		}
	}
}

// mul computes the semiring product a⊗b.
func mul[T any](sr semiring.Semiring[T], a, b *dense[T]) *dense[T] {
	out := newDense(sr, a.r, b.c)
	for i := 0; i < a.r; i++ {
		for k := 0; k < a.c; k++ {
			aik := a.at(i, k)
			if sr.Eq(aik, sr.Zero()) {
				continue
			}
			for j := 0; j < b.c; j++ {
				out.set(i, j, sr.Plus(out.at(i, j), sr.Times(aik, b.at(k, j))))
			}
		}
	}
	return out
}

// New preprocesses a path-algebra instance: it runs the generic Algorithm
// 4.1 over the decomposition tree and builds the query schedule.
func New[T any](sr semiring.Semiring[T], n int, edges []Edge[T], tree *separator.Tree) (*Engine[T], error) {
	if tree.N() != n {
		return nil, fmt.Errorf("pathalgebra: tree built for %d vertices, graph has %d", tree.N(), n)
	}
	e := &Engine[T]{sr: sr, n: n, tree: tree, edges: edges}

	// Adjacency restricted to vertex subsets is needed repeatedly; build a
	// per-vertex out list once.
	out := make([][]Edge[T], n)
	for _, ed := range edges {
		out[ed.From] = append(out[ed.From], ed)
	}

	// Generic Algorithm 4.1, level by level from the leaves.
	byLevel := make([][]int, tree.Height+1)
	for i := range tree.Nodes {
		byLevel[tree.Nodes[i].Level] = append(byLevel[tree.Nodes[i].Level], i)
	}
	db := make([]*dense[T], len(tree.Nodes))
	bIdx := make([]map[int]int, len(tree.Nodes))
	type shortcut struct {
		u, v int
		w    T
	}
	var plusEdges []shortcut
	emit := func(set []int, d *dense[T], idxRows, idxCols []int) {
		for i, u := range set {
			for j, v := range set {
				if u == v {
					continue
				}
				w := d.at(idxRows[i], idxCols[j])
				if !e.sr.Eq(w, e.sr.Zero()) {
					plusEdges = append(plusEdges, shortcut{u, v, w})
				}
			}
		}
	}
	iota := func(k int) []int {
		s := make([]int, k)
		for i := range s {
			s[i] = i
		}
		return s
	}
	for level := tree.Height; level >= 0; level-- {
		for _, id := range byLevel[level] {
			nd := &tree.Nodes[id]
			if nd.IsLeaf() {
				idx := make(map[int]int, len(nd.V))
				for i, v := range nd.V {
					idx[v] = i
				}
				full := newDense(sr, len(nd.V), len(nd.V))
				for _, v := range nd.V {
					for _, ed := range out[v] {
						if j, ok := idx[ed.To]; ok {
							full.set(idx[v], j, sr.Plus(full.at(idx[v], j), ed.W))
						}
					}
				}
				closureFW(sr, full)
				d := newDense(sr, len(nd.B), len(nd.B))
				for i, u := range nd.B {
					for j, v := range nd.B {
						d.set(i, j, full.at(idx[u], idx[v]))
					}
				}
				db[id] = d
				bIdx[id] = indexOf(nd.B)
				emit(nd.B, d, iota(len(nd.B)), iota(len(nd.B)))
				continue
			}
			c1, c2 := nd.Children[0], nd.Children[1]
			db1, db2, idx1, idx2 := db[c1], db[c2], bIdx[c1], bIdx[c2]
			S, B := nd.S, nd.B
			hs := newDense(sr, len(S), len(S))
			for i, u := range S {
				for j, v := range S {
					w := sr.Zero()
					if p, ok := idx1[u]; ok {
						if q, ok2 := idx1[v]; ok2 {
							w = sr.Plus(w, db1.at(p, q))
						}
					}
					if p, ok := idx2[u]; ok {
						if q, ok2 := idx2[v]; ok2 {
							w = sr.Plus(w, db2.at(p, q))
						}
					}
					hs.set(i, j, w)
				}
			}
			closureFW(sr, hs)
			sIdx := indexOf(S)
			wBS := newDense(sr, len(B), len(S))
			wSB := newDense(sr, len(S), len(B))
			for bi, bb := range B {
				if si, ok := sIdx[bb]; ok {
					for sj := range S {
						wBS.set(bi, sj, hs.at(si, sj))
						wSB.set(sj, bi, hs.at(sj, si))
					}
					continue
				}
				var d *dense[T]
				var p int
				var cidx map[int]int
				if q, ok := idx1[bb]; ok {
					d, p, cidx = db1, q, idx1
				} else if q, ok := idx2[bb]; ok {
					d, p, cidx = db2, q, idx2
				} else {
					return nil, fmt.Errorf("pathalgebra: boundary vertex %d lost at node %d", bb, id)
				}
				for sj, s := range S {
					q := cidx[s]
					wBS.set(bi, sj, d.at(p, q))
					wSB.set(sj, bi, d.at(q, p))
				}
			}
			dbt := mul(sr, mul(sr, wBS, hs), wSB)
			for i, u := range B {
				for j, v := range B {
					w := dbt.at(i, j)
					if p, ok := idx1[u]; ok {
						if q, ok2 := idx1[v]; ok2 {
							w = sr.Plus(w, db1.at(p, q))
						}
					}
					if p, ok := idx2[u]; ok {
						if q, ok2 := idx2[v]; ok2 {
							w = sr.Plus(w, db2.at(p, q))
						}
					}
					if u == v {
						w = sr.Plus(w, sr.One())
					}
					dbt.set(i, j, w)
				}
			}
			db[id] = dbt
			bIdx[id] = indexOf(B)
			emit(S, hs, iota(len(S)), iota(len(S)))
			emit(B, dbt, iota(len(B)), iota(len(B)))
		}
	}
	// Deduplicate shortcuts with Plus.
	dedup := make(map[int64]T)
	for _, sc := range plusEdges {
		k := int64(sc.u)<<32 | int64(uint32(sc.v))
		if old, ok := dedup[k]; ok {
			dedup[k] = sr.Plus(old, sc.w)
		} else {
			dedup[k] = sc.w
		}
	}
	for k, w := range dedup {
		e.plus = append(e.plus, Edge[T]{From: int(k >> 32), To: int(uint32(k)), W: w})
	}
	e.buckets = make([][]Edge[T], 3*(tree.Height+1))
	for _, list := range [2][]Edge[T]{e.edges, e.plus} {
		for _, ed := range list {
			if b := core.LevelBucket(tree, ed.From, ed.To); b != core.BucketAll {
				e.buckets[b] = append(e.buckets[b], ed)
			}
		}
	}
	return e, nil
}

func indexOf(vs []int) map[int]int {
	m := make(map[int]int, len(vs))
	for i, v := range vs {
		m[v] = i
	}
	return m
}

// ShortcutCount returns |E+| for this semiring instance.
func (e *Engine[T]) ShortcutCount() int { return len(e.plus) }

// Sources computes closure rows from several sources. Each source runs the
// same schedule; results match per-source SingleSource calls.
func (e *Engine[T]) Sources(srcs []int) [][]T {
	out := make([][]T, len(srcs))
	for i, s := range srcs {
		out[i] = e.SingleSource(s)
	}
	return out
}

// SingleSource computes the semiring closure row from src: for every v, the
// Plus over all src→v paths of the Times of their edge weights.
func (e *Engine[T]) SingleSource(src int) []T {
	sr := e.sr
	dist := make([]T, e.n)
	zero := sr.Zero()
	for i := range dist {
		dist[i] = zero
	}
	dist[src] = sr.One()
	l, height := e.tree.Ell(), e.tree.Height
	for i := 0; i < core.PhaseCount(l, height); i++ {
		edges := e.edges
		if _, b := core.PhaseOf(l, height, i); b != core.BucketAll {
			edges = e.buckets[b]
		}
		for _, ed := range edges {
			dist[ed.To] = sr.Plus(dist[ed.To], sr.Times(dist[ed.From], ed.W))
		}
	}
	return dist
}
