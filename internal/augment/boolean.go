package augment

import (
	"fmt"
	"sync/atomic"

	"sepsp/internal/bitmat"
	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// Reach43 is the reachability (boolean semiring) instantiation of Algorithm
// 4.3: each tree node maintains a boolean matrix over VH(t) and the
// path-doubling step becomes a boolean matrix product — the plug-in point
// where the paper invokes fast matrix multiplication M(r). Here the product
// is the word-parallel bitset kernel of internal/bitmat (see DESIGN.md
// substitutions).
//
// The returned Result contains E+ as zero-weight edges: (v1, v2) ∈ E+ iff v2
// is reachable from v1 in G(t) for some node t with {v1,v2} ⊆ S(t) or
// {v1,v2} ⊆ B(t).
func Reach43(g *graph.Digraph, t *separator.Tree, cfg Config) (*Result, error) {
	parts, err := reach43Parts(g, t, cfg)
	if err != nil {
		return nil, err
	}
	return assemble(g.N(), parts, nil, cfg.ex()), nil
}

// reach43Parts runs the boolean Algorithm 4.3 and returns every tree node's
// E_t contributions, indexed by node id.
func reach43Parts(g *graph.Digraph, t *separator.Tree, cfg Config) ([]part, error) {
	if g.N() != t.N() {
		return nil, fmt.Errorf("augment: graph has %d vertices, tree %d", g.N(), t.N())
	}
	ex := cfg.ex()
	nn := len(t.Nodes)
	type bnode struct {
		u []int
		m *bitmat.Matrix
		// scratch ping-pongs with m across squaring iterations: the product
		// lands in it, m is OR-merged in place, and the buffers swap — two
		// matrix allocations per node for the whole run.
		scratch  *bitmat.Matrix
		childPos [2][]int32
		parPos   [2][]int32
		child    [2]int
		leaf     bool
	}
	nodes := make([]*bnode, nn)

	ex.For(nn, func(id int) {
		nd := &t.Nodes[id]
		st := &bnode{leaf: nd.IsLeaf(), child: nd.Children}
		if st.leaf {
			st.u = append([]int(nil), nd.B...)
		} else {
			st.u = unionSorted(nd.S, nd.B)
		}
		if st.leaf {
			st.m = leafReach(g, nd, cfg)
		} else {
			st.m = bitmat.Identity(len(st.u))
			for i, a := range st.u {
				g.Out(a, func(to int, _ float64) bool {
					if j := search(st.u, to); j >= 0 {
						st.m.Set(i, j, true)
					}
					return true
				})
			}
		}
		st.scratch = bitmat.New(len(st.u))
		nodes[id] = st
	})
	maxU := 1
	for id := range nodes {
		st := nodes[id]
		if len(st.u) > maxU {
			maxU = len(st.u)
		}
		if st.leaf {
			continue
		}
		for ci := 0; ci < 2; ci++ {
			st.childPos[ci], st.parPos[ci] = shared(nodes[st.child[ci]].u, st.u)
		}
	}
	cfg.Stats.AddRounds(int64(ceilLog2(t.MaxLeafSize()) + 1))

	// As in the min-plus Alg43, the pull is split into a read-only
	// collection barrier and a write-only application barrier (EREW).
	staged := make([][][2]int32, nn)
	iters := 2*ceilLog2(t.N()) + 2*t.Height + 2
	for it := 0; it < iters; it++ {
		var changed atomic.Bool
		ex.For(nn, func(id int) {
			st := nodes[id]
			bitmat.MulInto(st.scratch, st.m, st.m, cfg.ex(), cfg.Stats)
			st.scratch.OrInPlace(st.m)
			if !st.scratch.Equal(st.m) {
				changed.Store(true)
			}
			st.m, st.scratch = st.scratch, st.m
		})
		ex.For(nn, func(id int) {
			st := nodes[id]
			buf := staged[id][:0]
			if !st.leaf {
				for ci := 0; ci < 2; ci++ {
					cm := nodes[st.child[ci]].m
					cps, pps := st.childPos[ci], st.parPos[ci]
					var work int64
					for a := range cps {
						for b := range cps {
							if cm.Get(int(cps[a]), int(cps[b])) && !st.m.Get(int(pps[a]), int(pps[b])) {
								buf = append(buf, [2]int32{pps[a], pps[b]})
							}
						}
						work += int64(len(cps))
					}
					cfg.Stats.AddWork(work)
				}
			}
			staged[id] = buf
		})
		ex.For(nn, func(id int) {
			st := nodes[id]
			for _, p := range staged[id] {
				if !st.m.Get(int(p[0]), int(p[1])) {
					st.m.Set(int(p[0]), int(p[1]), true)
					changed.Store(true)
				}
			}
		})
		cfg.Stats.AddRounds(int64(ceilLog2(maxU)) + 2)
		if !changed.Load() {
			break
		}
	}

	parts := make([]part, nn)
	ex.For(nn, func(id int) {
		nd, st := &t.Nodes[id], nodes[id]
		parts[id] = newPart(nd)
		parts[id].reachBlock(nd.S, positions(nd.S, st.u), st.m)
		parts[id].reachBlock(nd.B, positions(nd.B, st.u), st.m)
	})
	return parts, nil
}

// leafReach returns the reachability closure of the O(1)-size leaf
// subgraph G(t) restricted to B(t): rows and columns in B order.
func leafReach(g *graph.Digraph, nd *separator.Node, cfg Config) *bitmat.Matrix {
	adj := bitmat.New(len(nd.V))
	for i, v := range nd.V {
		g.Out(v, func(to int, _ float64) bool {
			if j := search(nd.V, to); j >= 0 {
				adj.Set(i, j, true)
			}
			return true
		})
	}
	cl := bitmat.Closure(adj, nil, cfg.Stats)
	pos := positions(nd.B, nd.V)
	m := bitmat.New(len(nd.B))
	for i, p := range pos {
		for j, q := range pos {
			m.Set(i, j, cl.Get(p, q))
		}
	}
	return m
}

// reachBlock appends the boolean contributions of set×set: a zero-weight
// pair (set[i], set[j]) for every i ≠ j with m(pos[i], pos[j]) set.
func (p *part) reachBlock(set, pos []int, m *bitmat.Matrix) {
	for i, a := range set {
		lo := len(p.to)
		for j, b := range set {
			if a != b && m.Get(pos[i], pos[j]) {
				p.to = append(p.to, int32(b))
				p.w = append(p.w, 0)
			}
		}
		p.endRow(a, lo)
	}
}
