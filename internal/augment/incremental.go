package augment

import (
	"fmt"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/separator"
)

// Incremental maintains the Algorithm 4.1 state (per-node distance
// matrices) so that E+ can be repaired after edge-weight changes without a
// full rebuild. This operationalizes the paper's comment (iv): the
// decomposition tree survives weight changes, and — going one step further —
// only the tree nodes whose subgraph contains a changed edge (a connected
// ancestor set of the touched leaves, O(d_G) nodes per changed edge) need
// their matrices recomputed.
type Incremental struct {
	g   *graph.Digraph
	t   *separator.Tree
	cfg Config
	db  []*matrix.Dense
	hsm []*matrix.Dense
}

// NewIncremental runs the full Algorithm 4.1 once, retaining all per-node
// state.
func NewIncremental(g *graph.Digraph, t *separator.Tree, cfg Config) (*Incremental, error) {
	inc := &Incremental{
		g:   g,
		t:   t,
		cfg: cfg,
		db:  make([]*matrix.Dense, len(t.Nodes)),
		hsm: make([]*matrix.Dense, len(t.Nodes)),
	}
	if err := inc.recompute(allNodes(t)); err != nil {
		return nil, err
	}
	return inc, nil
}

func allNodes(t *separator.Tree) map[int]bool {
	m := make(map[int]bool, len(t.Nodes))
	for i := range t.Nodes {
		m[i] = true
	}
	return m
}

// Update replaces the graph with newG — which must have the same undirected
// skeleton — and repairs the state. changedPairs lists the (from, to)
// endpoint pairs whose weight changed (both directions of a street count as
// two pairs); only tree nodes containing such a pair are recomputed.
//
// On error (e.g. a weight change created a negative cycle) the state is
// left unusable and the Incremental must be rebuilt.
func (inc *Incremental) Update(newG *graph.Digraph, changedPairs [][2]int) error {
	if newG.N() != inc.g.N() {
		return fmt.Errorf("augment: Update changed the vertex count")
	}
	dirty := make(map[int]bool)
	for _, p := range changedPairs {
		inc.markDirty(0, p[0], p[1], dirty)
	}
	inc.g = newG
	return inc.recompute(dirty)
}

// markDirty walks down from node id marking every node whose vertex set
// contains both endpoints. Children are explored only while they still
// contain the pair, so the walk visits exactly the dirty nodes (plus their
// pruned frontier).
func (inc *Incremental) markDirty(id, u, v int, dirty map[int]bool) {
	nd := &inc.t.Nodes[id]
	if search(nd.V, u) < 0 || search(nd.V, v) < 0 {
		return
	}
	dirty[id] = true
	if nd.IsLeaf() {
		return
	}
	inc.markDirty(nd.Children[0], u, v, dirty)
	inc.markDirty(nd.Children[1], u, v, dirty)
}

// recompute rebuilds the matrices of the given nodes, deepest level first
// (clean nodes keep their existing matrices and feed their parents). The
// per-call workspace recycles kernel temporaries across the dirty set; the
// recomputed db/hsm matrices it hands out are retained by the Incremental
// and never released back, so reuse cannot corrupt live state.
func (inc *Incremental) recompute(dirty map[int]bool) error {
	if len(dirty) == 0 {
		return nil
	}
	ws := matrix.NewWorkspace()
	byLevel := nodesByLevel(inc.t)
	for level := inc.t.Height; level >= 0; level-- {
		for _, id := range byLevel[level] {
			if !dirty[id] {
				continue
			}
			nd := &inc.t.Nodes[id]
			var err error
			if nd.IsLeaf() {
				_, err = processLeaf41(inc.g, nd, inc.db, inc.cfg, ws)
			} else {
				_, err = processInternal41(inc.t, nd, inc.db, inc.hsm, inc.cfg, ws)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// DirtyCount reports how many tree nodes an update touching the given pairs
// would recompute — the quantity that makes incremental repair cheap
// (O(d_G) nodes per changed edge, versus all nodes for a rebuild).
func (inc *Incremental) DirtyCount(changedPairs [][2]int) int {
	dirty := make(map[int]bool)
	for _, p := range changedPairs {
		inc.markDirty(0, p[0], p[1], dirty)
	}
	return len(dirty)
}

// NodeCount returns the total number of tree nodes (for comparison with
// DirtyCount).
func (inc *Incremental) NodeCount() int { return len(inc.t.Nodes) }

// Result collects the current E+ from the retained matrices.
func (inc *Incremental) Result() *Result {
	return assemble(inc.g.N(), inc.parts(), nil, inc.cfg.ex())
}

// parts emits every node's E_t contributions from the retained matrices.
func (inc *Incremental) parts() []part {
	parts := make([]part, len(inc.t.Nodes))
	inc.cfg.ex().For(len(parts), func(id int) {
		parts[id] = emitNode41(&inc.t.Nodes[id], inc.db[id], inc.hsm[id])
	})
	return parts
}
