// Package separator implements separator decomposition trees (Section 2.3 of
// the paper): rooted binary trees whose nodes t carry a vertex set V(t), a
// separator S(t) of the induced subgraph G(t), and the derived boundary sets
// B(t), together with the level and node functions of Section 3 and pluggable
// separator finders for the benchmark graph families.
package separator

import (
	"fmt"
	"math"
	"sort"

	"sepsp/internal/graph"
)

// LevelUndef is the level value of vertices that belong to no separator
// (the paper treats their level as +infinity in all comparisons).
const LevelUndef = math.MaxInt32

// Node is one node of a decomposition tree. Leaves have S == nil and
// Children == [-1, -1].
type Node struct {
	ID       int
	Parent   int // -1 for the root
	Children [2]int
	Level    int // distance from the root

	V []int // vertices of the subgraph G(t), sorted
	S []int // separator of G(t), sorted; nil for leaves
	B []int // boundary vertices, sorted
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Children[0] < 0 }

// Tree is a separator decomposition tree of a graph's undirected skeleton.
// The root is Nodes[0].
type Tree struct {
	Nodes  []Node
	Height int // d_G: maximum root-to-leaf path length in edges

	// VLevel[v] = level(v): the minimum level of a node whose separator
	// contains v, or LevelUndef if v is in no separator.
	VLevel []int
	// VNode[v] = node(v): the node realizing VLevel[v], or, for vertices
	// with undefined level, the unique leaf containing v.
	VNode []int

	n int // number of vertices of the underlying graph
}

// N returns the number of vertices of the decomposed graph.
func (t *Tree) N() int { return t.n }

// FromNodes reconstructs a tree from persisted nodes (deserialization). The
// derived level/node tables are recomputed; structural errors (e.g. a
// vertex in two same-level separators) are reported. Callers that do not
// trust the source should additionally run Validate against the graph's
// skeleton.
func FromNodes(n int, nodes []Node) (*Tree, error) {
	t := &Tree{Nodes: nodes, n: n}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("separator: no nodes")
	}
	if err := t.computeDerived(); err != nil {
		return nil, err
	}
	return t, nil
}

// Root returns the root node.
func (t *Tree) Root() *Node { return &t.Nodes[0] }

// Leaves returns the ids of all leaf nodes.
func (t *Tree) Leaves() []int {
	var ls []int
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			ls = append(ls, i)
		}
	}
	return ls
}

// MaxLeafSize returns the largest |V(t)| over leaves t; the paper's ℓ
// (maximum leaf min-weight diameter) is bounded by MaxLeafSize - 1.
func (t *Tree) MaxLeafSize() int {
	m := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() && len(t.Nodes[i].V) > m {
			m = len(t.Nodes[i].V)
		}
	}
	return m
}

// Ell returns the paper's ℓ as the engines use it: MaxLeafSize - 1, the
// most edges a shortest path inside one leaf needs, clamped at 0.
func (t *Tree) Ell() int { return max(t.MaxLeafSize()-1, 0) }

// MaxSeparatorSize returns the largest |S(t)| over internal nodes.
func (t *Tree) MaxSeparatorSize() int {
	m := 0
	for i := range t.Nodes {
		if len(t.Nodes[i].S) > m {
			m = len(t.Nodes[i].S)
		}
	}
	return m
}

// Level returns level(v) (LevelUndef if v lies in no separator).
func (t *Tree) Level(v int) int { return t.VLevel[v] }

// NodeOf returns node(v): the node whose separator realizes level(v), or the
// leaf containing v when level(v) is undefined.
func (t *Tree) NodeOf(v int) int { return t.VNode[v] }

// computeDerived fills Height, VLevel and VNode after the node structure is
// complete. It relies on the uniqueness argument of Section 3: for the
// minimum level, the realizing node is unique, because a vertex can only
// appear under two different nodes of equal level if it belongs to a
// shallower separator.
func (t *Tree) computeDerived() error {
	t.Height = 0
	t.VLevel = make([]int, t.n)
	t.VNode = make([]int, t.n)
	for v := range t.VLevel {
		t.VLevel[v] = LevelUndef
		t.VNode[v] = -1
	}
	// Nodes are appended in construction order with parents before
	// children, so a single pass visits shallower nodes first.
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Level > t.Height {
			t.Height = nd.Level
		}
		for _, v := range nd.S {
			if t.VLevel[v] == LevelUndef {
				t.VLevel[v] = nd.Level
				t.VNode[v] = nd.ID
			} else if t.VLevel[v] == nd.Level && t.VNode[v] != nd.ID {
				return fmt.Errorf("separator: vertex %d in two separators at level %d (nodes %d, %d)",
					v, nd.Level, t.VNode[v], nd.ID)
			}
		}
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if !nd.IsLeaf() {
			continue
		}
		for _, v := range nd.V {
			if t.VLevel[v] == LevelUndef && t.VNode[v] == -1 {
				t.VNode[v] = nd.ID
			}
		}
	}
	for v := 0; v < t.n; v++ {
		if t.VNode[v] == -1 {
			return fmt.Errorf("separator: vertex %d appears in no separator and no leaf", v)
		}
	}
	return nil
}

// Validate checks the structural invariants of the decomposition tree against
// the skeleton sk:
//
//   - V(root) = V; S(t) ⊆ V(t); B(t) = (S(parent) ∪ B(parent)) ∩ V(t).
//   - For internal t with children t1, t2: V(t1) ∪ V(t2) = V(t),
//     V(t1) ∩ V(t2) = S(t), and no skeleton edge joins V(t1)∖S(t) to
//     V(t2)∖S(t)  (S(t) separates).
//   - Proposition 2.1(ii): every skeleton edge leaving V(t) originates in
//     B(t).
func (t *Tree) Validate(sk *graph.Skeleton) error {
	if sk.N() != t.n {
		return fmt.Errorf("separator: skeleton has %d vertices, tree built for %d", sk.N(), t.n)
	}
	root := t.Root()
	if len(root.V) != t.n {
		return fmt.Errorf("separator: root covers %d of %d vertices", len(root.V), t.n)
	}
	if len(root.B) != 0 {
		return fmt.Errorf("separator: root boundary must be empty")
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if !sorted(nd.V) || !sorted(nd.S) || !sorted(nd.B) {
			return fmt.Errorf("separator: node %d has unsorted label sets", nd.ID)
		}
		if !subset(nd.S, nd.V) {
			return fmt.Errorf("separator: node %d: S ⊄ V", nd.ID)
		}
		if !subset(nd.B, nd.V) {
			return fmt.Errorf("separator: node %d: B ⊄ V", nd.ID)
		}
		if nd.IsLeaf() {
			if len(nd.S) != 0 {
				return fmt.Errorf("separator: leaf %d has a separator", nd.ID)
			}
			continue
		}
		c1, c2 := &t.Nodes[nd.Children[0]], &t.Nodes[nd.Children[1]]
		if c1.Parent != nd.ID || c2.Parent != nd.ID {
			return fmt.Errorf("separator: node %d: child parent pointers wrong", nd.ID)
		}
		if c1.Level != nd.Level+1 || c2.Level != nd.Level+1 {
			return fmt.Errorf("separator: node %d: child levels wrong", nd.ID)
		}
		if !equalSets(union(c1.V, c2.V), nd.V) {
			return fmt.Errorf("separator: node %d: V(t1) ∪ V(t2) != V(t)", nd.ID)
		}
		if !equalSets(intersect(c1.V, c2.V), nd.S) {
			return fmt.Errorf("separator: node %d: V(t1) ∩ V(t2) != S(t)", nd.ID)
		}
		// Boundary recurrence.
		sb := union(nd.S, nd.B)
		if !equalSets(intersect(sb, c1.V), c1.B) || !equalSets(intersect(sb, c2.V), c2.B) {
			return fmt.Errorf("separator: node %d: boundary recurrence violated", nd.ID)
		}
		// Separation: no skeleton edge across V(t1)∖S and V(t2)∖S.
		side := make(map[int]int, len(nd.V))
		for _, v := range diff(c1.V, nd.S) {
			side[v] = 1
		}
		for _, v := range diff(c2.V, nd.S) {
			if side[v] == 1 {
				return fmt.Errorf("separator: node %d: vertex %d on both sides", nd.ID, v)
			}
			side[v] = 2
		}
		for _, v := range nd.V {
			sv := side[v]
			if sv == 0 {
				continue
			}
			var bad int = -1
			sk.Adj(v, func(u int) bool {
				su, in := side[u], false
				if su != 0 {
					in = true
				}
				if in && su != sv {
					bad = u
					return false
				}
				return true
			})
			if bad >= 0 {
				return fmt.Errorf("separator: node %d: edge (%d,%d) crosses separator", nd.ID, v, bad)
			}
		}
	}
	// Proposition 2.1(ii) per node.
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		inV := make(map[int]bool, len(nd.V))
		for _, v := range nd.V {
			inV[v] = true
		}
		inB := make(map[int]bool, len(nd.B))
		for _, v := range nd.B {
			inB[v] = true
		}
		for _, v := range nd.V {
			if inB[v] {
				continue
			}
			var bad int = -1
			sk.Adj(v, func(u int) bool {
				if !inV[u] {
					bad = u
					return false
				}
				return true
			})
			if bad >= 0 {
				return fmt.Errorf("separator: node %d: interior vertex %d has edge leaving V(t) to %d",
					nd.ID, v, bad)
			}
		}
	}
	return nil
}

func sorted(s []int) bool { return sort.IntsAreSorted(s) }

func subset(a, b []int) bool { // a ⊆ b, both sorted
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
	}
	return true
}

func union(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func diff(a, b []int) []int { // a ∖ b
	var out []int
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
