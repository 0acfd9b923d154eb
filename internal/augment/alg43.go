package augment

import (
	"fmt"
	"sync/atomic"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/separator"
)

// node43 is the per-node state of Algorithm 4.3: the complete local graph
// H(t) on VH(t) = S(t) ∪ B(t) and the index plumbing to pull improved
// weights from the children.
type node43 struct {
	u []int         // VH(t), sorted
	d *matrix.Dense // current weights w_t on VH(t) × VH(t)
	// scratch is the ping-pong partner of d: each squaring iteration writes
	// min(d, d⊗d) into it and swaps on change, so the whole run performs two
	// matrix allocations per node instead of one per iteration.
	scratch *matrix.Dense

	// For each child: positions shared with this node, as parallel arrays
	// (childPos[k] in the child's matrix corresponds to parPos[k] here).
	childPos [2][]int32
	parPos   [2][]int32
	child    [2]int
	leaf     bool
}

// Alg43 computes E+ with Algorithm 4.3: all tree nodes simultaneously run
// path-doubling steps on their local complete graphs H(t), interleaved with
// a child-pull step that refreshes each weight with the children's current
// estimates. After 2⌈log n⌉ + 2·d_G + O(1) iterations every w_t(v1,v2)
// equals dist_{G(t)}(v1,v2) (Proposition 4.5).
//
// Compared to Alg41 this saves a Θ(log n) factor in parallel time (no
// per-level closure barrier) and pays a Θ(log n) factor in work (every node
// keeps squaring until the global fixpoint).
func Alg43(g *graph.Digraph, t *separator.Tree, cfg Config) (*Result, error) {
	parts, iters, err := alg43Parts(g, t, cfg)
	if err != nil {
		return nil, err
	}
	res := assemble(g.N(), parts, cfg.Prev, cfg.ex())
	res.Iters = iters
	return res, nil
}

// alg43Parts runs Algorithm 4.3 and returns every tree node's E_t
// contributions, indexed by node id, and the cost of the initialisation
// and of every doubling iteration (see Result.Iters).
func alg43Parts(g *graph.Digraph, t *separator.Tree, cfg Config) ([]part, []Stage, error) {
	if g.N() != t.N() {
		return nil, nil, fmt.Errorf("augment: graph has %d vertices, tree %d", g.N(), t.N())
	}
	ex := cfg.ex()
	nn := len(t.Nodes)
	nodes := make([]*node43, nn)
	errs := make([]error, nn)
	// Workspace for leaf-closure scratch: the full |V(t)|×|V(t)| leaf matrices
	// are restricted to VH(t) and released immediately, so concurrent leaves
	// recycle a handful of slabs instead of allocating one each.
	ws := matrix.NewWorkspace()
	iters := 2*ceilLog2(t.N()) + 2*t.Height + 2
	stages := make([]Stage, 1, iters+1)

	// Step (i): initialize every H(t) — in parallel, one round group.
	err := cfg.attributed(&stages[0], "prep.init",
		[]any{"alg", 43, "nodes", nn},
		func(c Config) error {
			ex.For(nn, func(id int) {
				nd := &t.Nodes[id]
				st := &node43{leaf: nd.IsLeaf(), child: nd.Children}
				if st.leaf {
					st.u = append([]int(nil), nd.B...)
				} else {
					st.u = unionSorted(nd.S, nd.B)
				}
				k := len(st.u)
				if st.leaf {
					full, err := leafClosure(g, nd, c, ws)
					if err != nil {
						errs[id] = err
						return
					}
					pos := positions(st.u, nd.V)
					st.d = matrix.New(k, k)
					for i, p := range pos {
						for j, q := range pos {
							st.d.Set(i, j, full.At(p, q))
						}
					}
					ws.Put(full)
				} else {
					st.d = matrix.NewSquare(k)
					for i, a := range st.u {
						g.Out(a, func(to int, w float64) bool {
							if j := search(st.u, to); j >= 0 {
								st.d.SetMin(i, j, w)
							}
							return true
						})
					}
				}
				st.scratch = matrix.New(k, k)
				nodes[id] = st
			})
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			c.Stats.AddRounds(int64(t.MaxLeafSize()) + 1) // leaf closures run concurrently
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	// Wire up the pull maps (children exist after the init barrier).
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

	// Step (ii): 2⌈log n⌉ + 2·d_G (+2 slack) interleaved rounds of
	// per-node squaring and child pulls, with a global-fixpoint early exit.
	// The pull is split into a read-only collection phase and a write-only
	// application phase (each an ex.For barrier) so no goroutine ever reads
	// a matrix another goroutine is writing — the EREW discipline, literally.
	type pulled struct {
		i, j int32
		v    float64
	}
	staged := make([][]pulled, nn)
	for it := 0; it < iters; it++ {
		if err := cfg.cancelled(); err != nil {
			return nil, nil, err
		}
		var changed atomic.Bool
		stages = append(stages, Stage{})
		err := cfg.attributed(&stages[len(stages)-1], "prep.iter",
			[]any{"alg", 43, "iter", it},
			func(c Config) error {
				ex.For(nn, func(id int) {
					st := nodes[id]
					if matrix.SquareStepInto(st.scratch, st.d, c.ex(), c.Stats) {
						st.d, st.scratch = st.scratch, st.d
						changed.Store(true)
					}
				})
				ex.For(nn, func(id int) {
					st := nodes[id]
					buf := staged[id][:0]
					if !st.leaf {
						for ci := 0; ci < 2; ci++ {
							cd := nodes[st.child[ci]].d
							cps, pps := st.childPos[ci], st.parPos[ci]
							var work int64
							for a := range cps {
								for b := range cps {
									v := cd.At(int(cps[a]), int(cps[b]))
									i, j := int(pps[a]), int(pps[b])
									if v < st.d.At(i, j) {
										buf = append(buf, pulled{int32(i), int32(j), v})
									}
								}
								work += int64(len(cps))
							}
							c.Stats.AddWork(work)
						}
					}
					staged[id] = buf
				})
				ex.For(nn, func(id int) {
					st := nodes[id]
					for _, p := range staged[id] {
						if p.v < st.d.At(int(p.i), int(p.j)) {
							st.d.Set(int(p.i), int(p.j), p.v)
							changed.Store(true)
						}
					}
				})
				c.Stats.AddRounds(matrix.MulRounds(maxU) + 2)
				return nil
			})
		if err != nil {
			return nil, nil, err
		}
		if !changed.Load() {
			break
		}
	}

	// Negative-cycle detection: a negative cycle in G lies within some
	// G(t) crossing S(t) (or inside a leaf, caught at init), and drives the
	// corresponding diagonal negative.
	for id, st := range nodes {
		for i := range st.u {
			if st.d.At(i, i) < 0 {
				return nil, nil, fmt.Errorf("%w (H graph of node %d)", ErrNegativeCycle, id)
			}
		}
	}

	// Step (iii): every node emits E_t = S(t)×S(t) ∪ B(t)×B(t).
	parts := make([]part, nn)
	ex.For(nn, func(id int) {
		nd, st := &t.Nodes[id], nodes[id]
		parts[id] = newPart(nd)
		parts[id].block(nd.S, positions(nd.S, st.u), st.d)
		parts[id].block(nd.B, positions(nd.B, st.u), st.d)
	})
	return parts, stages, nil
}

// shared pairs up the vertices a child's sorted VH has in common with its
// parent's: childPos[k] in the child's matrix is parPos[k] in the parent's.
func shared(child, parent []int) (childPos, parPos []int32) {
	pos := positions(child, parent)
	childPos, parPos = make([]int32, 0, len(pos)), make([]int32, 0, len(pos))
	for cp, pp := range pos {
		if pp >= 0 {
			childPos = append(childPos, int32(cp))
			parPos = append(parPos, int32(pp))
		}
	}
	return childPos, parPos
}

func unionSorted(a, b []int) []int {
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

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for x := n - 1; x > 0; x >>= 1 {
		k++
	}
	return k
}
