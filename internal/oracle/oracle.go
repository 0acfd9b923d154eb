// Package oracle implements a compact all-pairs distance representation on
// top of the separator decomposition — the "representation of all-pairs
// shortest-paths (by a compact routing table)" the paper builds in Section 6
// and attributes to Frederickson, generalized here to any k^μ-separator
// decomposition as hub labels:
//
// Every vertex u stores, for every ancestor-or-self node a of node(u), the
// distances to and from every separator vertex of S(a) — O(Σ n^μ·α^{iμ}) =
// O(n^μ) hubs per vertex. Correctness rests on the level argument of
// Section 3: on any shortest u→v path, the minimum-level vertex w satisfies
// w ∈ S(node(w)) with node(w) an ancestor-or-self of both node(u) and
// node(v), so w appears in both labels and d(u,w) + d(w,v) = d(u,v).
// Pairs whose entire shortest path stays inside one leaf (all levels
// undefined) are answered from the retained per-leaf closures.
//
// Costs for a k^μ decomposition: O(n^{1+μ}) label space, O(n^μ) work per
// pair query — the Djidjev-style "distances between k specified pairs" of
// the paper's Section 6 then costs O(k·n^μ) after preprocessing.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"sepsp/internal/baseline"
	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

type hubEntry struct {
	hub     int32
	toHub   float64 // d(u, hub)
	fromHub float64 // d(hub, u)
}

// Oracle answers exact distance queries for arbitrary pairs.
type Oracle struct {
	n      int
	labels [][]hubEntry // per vertex, sorted by hub id

	// leaf fallback: per leaf node, the local closure and index map
	leafDist map[int]*matrix.Dense
	leafIdx  map[int]map[int]int
	tree     *separator.Tree
}

// New builds the oracle. eng must be a preprocessed engine for the graph
// (its distances establish the Johnson potentials that make the per-node
// Dijkstra sweeps valid under negative weights).
func New(eng *core.Engine, ex *pram.Executor, st *pram.Stats) (*Oracle, error) {
	if ex == nil {
		ex = pram.Sequential
	}
	g := eng.Graph()
	t := eng.Tree()
	o := &Oracle{
		n:        g.N(),
		labels:   make([][]hubEntry, g.N()),
		leafDist: make(map[int]*matrix.Dense),
		leafIdx:  make(map[int]map[int]int),
		tree:     t,
	}
	// Global potentials via the engine's virtual super-source query; then
	// reweight so all edges are nonnegative and Dijkstra applies inside
	// every subgraph.
	pot := eng.SSSPFrom(make([]float64, g.N()), st)
	rb := graph.NewBuilder(g.N())
	g.Edges(func(from, to int, w float64) bool {
		rw := w + pot[from] - pot[to]
		if rw < 0 {
			rw = 0 // clamp float noise; exact -0.0000…1 only
		}
		rb.AddEdge(from, to, rw)
		return true
	})
	rg := rb.Build()

	type nodeLabels struct {
		vertices []int
		entries  [][]hubEntry // parallel to vertices
	}
	perNode := make([]nodeLabels, len(t.Nodes))
	errs := make([]error, len(t.Nodes))
	ex.For(len(t.Nodes), func(id int) {
		nd := &t.Nodes[id]
		if nd.IsLeaf() {
			return
		}
		sub, orig := rg.Induced(nd.V)
		rev := sub.Reverse()
		idx := make(map[int]int, len(orig))
		for i, v := range orig {
			idx[v] = i
		}
		inB := make(map[int]bool, len(nd.B))
		for _, b := range nd.B {
			inB[b] = true
		}
		var own []int
		for _, v := range nd.V {
			if !inB[v] {
				own = append(own, v)
			}
		}
		nl := nodeLabels{vertices: own, entries: make([][]hubEntry, len(own))}
		for _, s := range nd.S {
			fwd, err := baseline.Dijkstra(sub, idx[s], st)
			if err != nil {
				errs[id] = err
				return
			}
			bwd, err := baseline.Dijkstra(rev, idx[s], st)
			if err != nil {
				errs[id] = err
				return
			}
			for i, v := range own {
				li := idx[v]
				// bwd is Dijkstra from s on the reversed subgraph, so
				// bwd[v] = d'(v → s); undo the reweighting with
				// d(u,v) = d'(u,v) − pot[u] + pot[v].
				toHub := bwd[li]
				fromHub := fwd[li]
				var e hubEntry
				e.hub = int32(s)
				if math.IsInf(toHub, 1) {
					e.toHub = toHub
				} else {
					e.toHub = toHub - pot[v] + pot[s]
				}
				if math.IsInf(fromHub, 1) {
					e.fromHub = fromHub
				} else {
					e.fromHub = fromHub - pot[s] + pot[v]
				}
				nl.entries[i] = append(nl.entries[i], e)
			}
		}
		perNode[id] = nl
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	for id := range perNode {
		nl := &perNode[id]
		for i, v := range nl.vertices {
			o.labels[v] = append(o.labels[v], nl.entries[i]...)
		}
	}
	for v := range o.labels {
		sort.Slice(o.labels[v], func(i, j int) bool { return o.labels[v][i].hub < o.labels[v][j].hub })
	}
	// Leaf fallback closures (on the ORIGINAL weights).
	for _, id := range t.Leaves() {
		nd := &t.Nodes[id]
		idx := make(map[int]int, len(nd.V))
		d := matrix.NewSquare(len(nd.V))
		for i, v := range nd.V {
			idx[v] = i
		}
		for i, v := range nd.V {
			g.Out(v, func(to int, w float64) bool {
				if j, ok := idx[to]; ok {
					d.SetMin(i, j, w)
				}
				return true
			})
		}
		if err := matrix.FloydWarshall(d, pram.Sequential, st); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		o.leafDist[id] = d
		o.leafIdx[id] = idx
	}
	return o, nil
}

// LabelSize returns the total number of hub entries (the O(n^{1+μ}) space).
func (o *Oracle) LabelSize() int {
	total := 0
	for _, l := range o.labels {
		total += len(l)
	}
	return total
}

// N returns the number of vertices the oracle answers for.
func (o *Oracle) N() int { return o.n }

// Dist returns the exact distance from u to v in O(|L(u)| + |L(v)|) work.
func (o *Oracle) Dist(u, v int, st *pram.Stats) float64 {
	if u == v {
		return 0
	}
	best := math.Inf(1)
	lu, lv := o.labels[u], o.labels[v]
	i, j := 0, 0
	for i < len(lu) && j < len(lv) {
		switch {
		case lu[i].hub < lv[j].hub:
			i++
		case lv[j].hub < lu[i].hub:
			j++
		default:
			if d := lu[i].toHub + lv[j].fromHub; d < best {
				best = d
			}
			i++
			j++
		}
	}
	st.AddWork(int64(len(lu) + len(lv)))
	// Same-leaf fallback for paths that never touch a separator.
	un, vn := o.tree.NodeOf(u), o.tree.NodeOf(v)
	if un == vn {
		if d, ok := o.leafDist[un]; ok {
			idx := o.leafIdx[un]
			if w := d.At(idx[u], idx[v]); w < best {
				best = w
			}
		}
	}
	return best
}

// Pairs answers k pair queries (the Section 6 "distances between k
// specified pairs" workload), parallelized over pairs.
func (o *Oracle) Pairs(pairs [][2]int, ex *pram.Executor, st *pram.Stats) []float64 {
	if ex == nil {
		ex = pram.Sequential
	}
	out := make([]float64, len(pairs))
	ex.For(len(pairs), func(i int) {
		out[i] = o.Dist(pairs[i][0], pairs[i][1], st)
	})
	return out
}
