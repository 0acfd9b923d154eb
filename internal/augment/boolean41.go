package augment

import (
	"fmt"
	"sync"

	"sepsp/internal/bitmat"
	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// Reach41 is the reachability instantiation of Algorithm 4.1 (leaves-up).
// Per internal node, step (ii)'s all-pairs closure and step (iv)'s
// 3-limited computation both become boolean matrix products — the paper's
// "step ii in O(log² |S|) time using M(|S|) log |S| work, step iv using
// M(|S| + |B|) work" — realized with the word-parallel bitset kernel.
//
// It produces exactly the same boolean E+ as Reach43 (both compute
// reachability within every G(t) restricted to S(t)×S(t) ∪ B(t)×B(t)).
func Reach41(g *graph.Digraph, t *separator.Tree, cfg Config) (*Result, error) {
	parts, err := reach41Parts(g, t, cfg)
	if err != nil {
		return nil, err
	}
	return assemble(g.N(), parts, nil, cfg.ex()), nil
}

// reach41Parts runs the boolean Algorithm 4.1 and returns every tree
// node's E_t contributions, indexed by node id.
func reach41Parts(g *graph.Digraph, t *separator.Tree, cfg Config) ([]part, error) {
	if g.N() != t.N() {
		return nil, fmt.Errorf("augment: graph has %d vertices, tree %d", g.N(), t.N())
	}
	byLevel := nodesByLevel(t)
	nn := len(t.Nodes)
	// rb[id] holds node id's reachability matrix: over B(t) for leaves,
	// over U(t) = S(t) ∪ B(t) for internal nodes; keys[id] is that sorted
	// index set. Matrices stay alive until final collection.
	rb := make([]*bitmat.Matrix, nn)
	keys := make([][]int, nn)
	errs := make([]error, nn)
	ex := cfg.ex()

	for level := t.Height; level >= 0; level-- {
		nodes := byLevel[level]
		if len(nodes) == 0 {
			continue
		}
		var mu sync.Mutex
		var maxRounds int64
		ex.For(len(nodes), func(i int) {
			id := nodes[i]
			nd := &t.Nodes[id]
			var rounds int64
			if nd.IsLeaf() {
				rb[id], keys[id] = leafReach(g, nd, cfg), nd.B
				rounds = int64(ceilLog2(len(nd.V)) + 1)
			} else {
				var err error
				rounds, err = processInternalReach41(nd, rb, keys, cfg)
				if err != nil {
					errs[id] = err
					return
				}
			}
			mu.Lock()
			if rounds > maxRounds {
				maxRounds = rounds
			}
			mu.Unlock()
		})
		for _, id := range nodes {
			if errs[id] != nil {
				return nil, errs[id]
			}
		}
		cfg.Stats.AddRounds(maxRounds)
	}
	// Collect E_t = S(t)×S(t) ∪ B(t)×B(t) from every node's stored matrix.
	parts := make([]part, nn)
	ex.For(nn, func(id int) {
		nd, m, k := &t.Nodes[id], rb[id], keys[id]
		parts[id] = newPart(nd)
		parts[id].reachBlock(nd.S, positions(nd.S, k), m)
		parts[id].reachBlock(nd.B, positions(nd.B, k), m)
	})
	return parts, nil
}

// processInternalReach41 mirrors Algorithm 4.1's steps over the boolean
// semiring. The whole node is handled as one U×U matrix over U = S ∪ B:
// child reachabilities are ORed in (step i + the child contributions of
// step v), the S-block is closed (step ii), and one bounded-power pass
// H^(2·) ∪ … captures the 3-limited B→S→S→B paths (steps iii-iv).
func processInternalReach41(nd *separator.Node, rb []*bitmat.Matrix, keys [][]int, cfg Config) (int64, error) {
	c1, c2 := nd.Children[0], nd.Children[1]
	if rb[c1] == nil || rb[c2] == nil {
		return 0, fmt.Errorf("augment: node %d processed before its children", nd.ID)
	}
	u := unionSorted(nd.S, nd.B)
	k := len(u)
	h := bitmat.Identity(k)
	// Child reachability between every pair of U vertices present in the
	// child's boundary — this covers the H edge sets B×S, S×B (and
	// contributes the direct child B×B paths of step v).
	for _, c := range nd.Children {
		m, pos := rb[c], positions(u, keys[c])
		var work int64
		for i, pa := range pos {
			if pa < 0 {
				continue
			}
			for j, pb := range pos {
				if pb >= 0 && m.Get(pa, pb) {
					h.Set(i, j, true)
				}
			}
			work += int64(len(u))
		}
		cfg.Stats.AddWork(work)
	}
	// Close: paths alternate child-segments through S(t); |S| hops suffice,
	// so squaring ceil(log2 |S|)+2 times reaches the fixpoint. (This folds
	// steps (ii) and (iv) into one bounded closure on H, which computes the
	// same U×U reachability.)
	rounds := int64(0)
	next := bitmat.New(k) // ping-pong partner of h, reused across iterations
	for it := 0; it < ceilLog2(len(nd.S)+2)+2; it++ {
		bitmat.MulInto(next, h, h, cfg.ex(), cfg.Stats)
		next.OrInPlace(h)
		rounds += int64(ceilLog2(k) + 1)
		if next.Equal(h) {
			break
		}
		h, next = next, h
	}
	rb[nd.ID] = h
	keys[nd.ID] = u
	return rounds, nil
}
