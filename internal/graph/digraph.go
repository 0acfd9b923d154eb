// Package graph provides the weighted-digraph substrate used throughout the
// repository: a compact CSR (compressed sparse row) representation with both
// out- and in-adjacency, a mutable Builder, induced subgraphs, the undirected
// skeleton view consumed by separator finders, and basic traversals.
//
// Vertices are dense integers 0..n-1. Edge weights are float64; +Inf is the
// canonical "no edge / unreachable" value (see Inf), and a +Inf edge weight
// is legal but inert (relaxing through it can never improve a distance).
// NaN and -Inf weights are rejected — NaN silently poisons every distance
// comparison it touches, and -Inf is a degenerate negative cycle —
// FromEdges panics on them (like it does for out-of-range endpoints), and
// Builder.CheckWeights reports them as an error for layers that validate
// untrusted input. A −0 weight is stored as +0: the two compare equal, but
// a tie between them would otherwise let the sign of a zero distance depend
// on relaxation order. Parallel edges are permitted by the representation;
// most algorithms treat them as alternative weights and only the minimum
// matters.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Inf is the canonical "unreachable" distance.
func Inf() float64 { return math.Inf(1) }

// ErrBadWeight reports a NaN or -Inf edge weight.
var ErrBadWeight = errors.New("graph: edge weight must not be NaN or -Inf")

// CheckWeight validates one edge weight: NaN and -Inf are rejected, every
// other float64 (including +Inf) is permitted.
func CheckWeight(w float64) error {
	if w != w || math.IsInf(w, -1) {
		return fmt.Errorf("%w (got %v)", ErrBadWeight, w)
	}
	return nil
}

// Edge is a directed weighted edge.
type Edge struct {
	From, To int
	W        float64
}

// Digraph is an immutable directed graph with float64 edge weights stored in
// CSR form, with both out-adjacency and in-adjacency available.
type Digraph struct {
	n int

	outHead []int32 // length n+1
	outTo   []int32 // length m
	outW    []float64

	inHead []int32
	inFrom []int32
	inW    []float64
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Digraph) M() int { return len(g.outTo) }

// Out calls fn for every out-edge (v -> to, w). It stops early if fn returns
// false.
func (g *Digraph) Out(v int, fn func(to int, w float64) bool) {
	for i := g.outHead[v]; i < g.outHead[v+1]; i++ {
		if !fn(int(g.outTo[i]), g.outW[i]) {
			return
		}
	}
}

// In calls fn for every in-edge (from -> v, w). It stops early if fn returns
// false.
func (g *Digraph) In(v int, fn func(from int, w float64) bool) {
	for i := g.inHead[v]; i < g.inHead[v+1]; i++ {
		if !fn(int(g.inFrom[i]), g.inW[i]) {
			return
		}
	}
}

// Edges calls fn for every directed edge. It stops early if fn returns false.
func (g *Digraph) Edges(fn func(from, to int, w float64) bool) {
	for v := 0; v < g.n; v++ {
		for i := g.outHead[v]; i < g.outHead[v+1]; i++ {
			if !fn(v, int(g.outTo[i]), g.outW[i]) {
				return
			}
		}
	}
}

// EdgeList returns all edges in a freshly allocated slice. Useful for
// edge-centric algorithms such as Bellman-Ford.
func (g *Digraph) EdgeList() []Edge {
	es := make([]Edge, 0, g.M())
	g.Edges(func(from, to int, w float64) bool {
		es = append(es, Edge{from, to, w})
		return true
	})
	return es
}

// SameEdges reports whether g and o have the same vertex count and the same
// directed edges in the same order, weights aside: identical out-CSR heads
// and targets. Such graphs have equal skeletons, and everything derived
// from the edge sequence alone (EdgeList's pairs, a separator tree, the
// query schedule's layout) carries over from one to the other.
func (g *Digraph) SameEdges(o *Digraph) bool {
	return g.n == o.n && slices.Equal(g.outHead, o.outHead) && slices.Equal(g.outTo, o.outTo)
}

// HasEdge reports whether a directed edge from -> to exists, and if so
// returns the minimum weight among parallel copies.
func (g *Digraph) HasEdge(from, to int) (float64, bool) {
	w, ok := Inf(), false
	g.Out(from, func(t int, ew float64) bool {
		if t == to {
			ok = true
			if ew < w {
				w = ew
			}
		}
		return true
	})
	return w, ok
}

// Builder accumulates edges and produces an immutable Digraph.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge adds a directed edge u -> v with weight w.
func (b *Builder) AddEdge(u, v int, w float64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, Edge{u, v, w})
}

// AddBoth adds edges u -> v and v -> u, both with weight w.
func (b *Builder) AddBoth(u, v int, w float64) {
	b.AddEdge(u, v, w)
	b.AddEdge(v, u, w)
}

// CheckWeights reports the first NaN or -Inf edge weight accumulated so
// far. Layers accepting untrusted input call this before Build to get a
// typed error instead of FromEdges' panic.
func (b *Builder) CheckWeights() error {
	return CheckEdgeWeights(b.edges)
}

// CheckEdgeWeights validates every weight in an edge list (see CheckWeight).
func CheckEdgeWeights(edges []Edge) error {
	for _, e := range edges {
		if err := CheckWeight(e.W); err != nil {
			return fmt.Errorf("edge (%d,%d): %w", e.From, e.To, err)
		}
	}
	return nil
}

// Build produces the immutable CSR digraph. The Builder may be reused
// afterwards (further AddEdge calls affect only future Builds).
func (b *Builder) Build() *Digraph {
	return FromEdges(b.n, b.edges)
}

// FromEdges constructs a Digraph from an explicit edge list. It panics on
// out-of-range endpoints and on NaN/-Inf weights (see CheckWeight); callers
// holding untrusted edges should validate with CheckEdgeWeights first. A −0
// weight is stored as +0, so no −0 reaches a closure or a distance.
func FromEdges(n int, edges []Edge) *Digraph {
	g := &Digraph{
		n:       n,
		outHead: make([]int32, n+1),
		outTo:   make([]int32, len(edges)),
		outW:    make([]float64, len(edges)),
		inHead:  make([]int32, n+1),
		inFrom:  make([]int32, len(edges)),
		inW:     make([]float64, len(edges)),
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n))
		}
		if e.W != e.W || math.IsInf(e.W, -1) {
			panic(fmt.Sprintf("graph: edge (%d,%d) has invalid weight %v", e.From, e.To, e.W))
		}
		g.outHead[e.From+1]++
		g.inHead[e.To+1]++
	}
	for v := 0; v < n; v++ {
		g.outHead[v+1] += g.outHead[v]
		g.inHead[v+1] += g.inHead[v]
	}
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	for _, e := range edges {
		w := e.W
		if w == 0 {
			w = 0 // canonical +0 for a −0 weight
		}
		p := g.outHead[e.From] + outPos[e.From]
		g.outTo[p] = int32(e.To)
		g.outW[p] = w
		outPos[e.From]++
		q := g.inHead[e.To] + inPos[e.To]
		g.inFrom[q] = int32(e.From)
		g.inW[q] = w
		inPos[e.To]++
	}
	return g
}

// Reverse returns the graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	es := make([]Edge, 0, g.M())
	g.Edges(func(from, to int, w float64) bool {
		es = append(es, Edge{to, from, w})
		return true
	})
	return FromEdges(g.n, es)
}

// Induced returns the subgraph induced by the vertex set verts, together with
// the mapping from new vertex ids (0..len(verts)-1) back to original ids
// (which is a copy of verts) . Duplicate entries in verts are rejected.
func (g *Digraph) Induced(verts []int) (*Digraph, []int) {
	toNew := make(map[int]int, len(verts))
	for i, v := range verts {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: induced vertex %d out of range", v))
		}
		if _, dup := toNew[v]; dup {
			panic(fmt.Sprintf("graph: duplicate vertex %d in induced set", v))
		}
		toNew[v] = i
	}
	var es []Edge
	for i, v := range verts {
		g.Out(v, func(to int, w float64) bool {
			if j, ok := toNew[to]; ok {
				es = append(es, Edge{i, j, w})
			}
			return true
		})
	}
	orig := make([]int, len(verts))
	copy(orig, verts)
	return FromEdges(len(verts), es), orig
}

// Skeleton is an unweighted undirected adjacency view of a digraph: for every
// directed edge u->v (u != v) both u~v and v~u appear exactly once. Separator
// finders operate on skeletons, per the paper's observation (iv) that the
// decomposition depends only on the undirected unweighted skeleton.
type Skeleton struct {
	n    int
	head []int32
	adj  []int32
}

// NewSkeleton builds the undirected skeleton of g. Self-loops and duplicate
// (parallel / antiparallel) edges are collapsed.
func NewSkeleton(g *Digraph) *Skeleton {
	type pair struct{ a, b int32 }
	seen := make(map[pair]struct{}, g.M())
	deg := make([]int32, g.n+1)
	var pairs []pair
	g.Edges(func(from, to int, _ float64) bool {
		if from == to {
			return true
		}
		a, b := int32(from), int32(to)
		if a > b {
			a, b = b, a
		}
		p := pair{a, b}
		if _, ok := seen[p]; !ok {
			seen[p] = struct{}{}
			pairs = append(pairs, p)
			deg[a+1]++
			deg[b+1]++
		}
		return true
	})
	s := &Skeleton{n: g.n, head: deg}
	for v := 0; v < g.n; v++ {
		s.head[v+1] += s.head[v]
	}
	s.adj = make([]int32, 2*len(pairs))
	pos := make([]int32, g.n)
	for _, p := range pairs {
		s.adj[s.head[p.a]+pos[p.a]] = p.b
		pos[p.a]++
		s.adj[s.head[p.b]+pos[p.b]] = p.a
		pos[p.b]++
	}
	return s
}

// N returns the number of vertices.
func (s *Skeleton) N() int { return s.n }

// Equal reports whether two skeletons have the same vertex count and the
// same undirected edge set. Graphs with equal skeletons share separator
// decompositions (paper comment (iv)): the decomposition depends only on
// the skeleton, not on weights or edge directions.
func (s *Skeleton) Equal(o *Skeleton) bool {
	if s.n != o.n || len(s.adj) != len(o.adj) {
		return false
	}
	for v := 0; v < s.n; v++ {
		if s.head[v] != o.head[v] {
			return false
		}
		a := append([]int32(nil), s.adj[s.head[v]:s.head[v+1]]...)
		b := append([]int32(nil), o.adj[o.head[v]:o.head[v+1]]...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// Degree returns the undirected degree of v.
func (s *Skeleton) Degree(v int) int { return int(s.head[v+1] - s.head[v]) }

// Adj calls fn for each undirected neighbor of v.
func (s *Skeleton) Adj(v int, fn func(u int) bool) {
	for i := s.head[v]; i < s.head[v+1]; i++ {
		if !fn(int(s.adj[i])) {
			return
		}
	}
}

// SubComponents computes the connected components of the skeleton restricted
// to the vertex set sub (given as a sorted or unsorted slice of vertex ids).
// It returns one slice of vertex ids per component.
func (s *Skeleton) SubComponents(sub []int) [][]int {
	in := make(map[int]bool, len(sub))
	for _, v := range sub {
		in[v] = true
	}
	visited := make(map[int]bool, len(sub))
	var comps [][]int
	for _, start := range sub {
		if visited[start] {
			continue
		}
		comp := []int{start}
		visited[start] = true
		for i := 0; i < len(comp); i++ {
			v := comp[i]
			s.Adj(v, func(u int) bool {
				if in[u] && !visited[u] {
					visited[u] = true
					comp = append(comp, u)
				}
				return true
			})
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// BFSLevels runs an undirected BFS over the skeleton restricted to sub,
// starting from root (which must be in sub), and returns the level of each
// reached vertex keyed by vertex id.
func (s *Skeleton) BFSLevels(sub []int, root int) map[int]int {
	in := make(map[int]bool, len(sub))
	for _, v := range sub {
		in[v] = true
	}
	if !in[root] {
		panic("graph: BFS root not in vertex set")
	}
	level := map[int]int{root: 0}
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		s.Adj(v, func(u int) bool {
			if in[u] {
				if _, ok := level[u]; !ok {
					level[u] = level[v] + 1
					queue = append(queue, u)
				}
			}
			return true
		})
	}
	return level
}
