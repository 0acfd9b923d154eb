package augment

import (
	"fmt"
	"sync"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/separator"
)

// Alg41 computes E+ with Algorithm 4.1, processing the decomposition tree
// level by level from the leaves up. At each internal node t with children
// t1, t2 (for which dist_{G(ti)} on B(ti)×B(ti) is already known):
//
//	(i)   build H_S on S(t) with w(v1,v2) = min_i dist_{G(ti)}(v1,v2);
//	(ii)  close H_S all-pairs  → dist_{G(t)} on S(t)×S(t);
//	(iii) build H on B(t) ∪ S(t) with edge sets B×S, S×B (child distances)
//	      and S×S (closed H_S distances);
//	(iv)  3-limited shortest paths between boundary vertices, realized as
//	      two rectangular min-plus products  (B×S)⊗(S×S)⊗(S×B);
//	(v)   dist_{G(t)} on B(t)×B(t) = min(child distance, 3-limited distance).
//
// All nodes of one level are processed in one parallel round group; counted
// rounds per level are the maximum over its nodes, matching the PRAM model
// where the nodes run concurrently.
func Alg41(g *graph.Digraph, t *separator.Tree, cfg Config) (*Result, error) {
	parts, levels, err := alg41Parts(g, t, cfg)
	if err != nil {
		return nil, err
	}
	res := assemble(g.N(), parts, cfg.Prev, cfg.ex())
	res.Levels = levels
	return res, nil
}

// alg41Parts runs Algorithm 4.1 and returns every tree node's E_t
// contributions, indexed by node id, and the cost of every tree level; each
// node emits its own inside the level round that computes its distances.
func alg41Parts(g *graph.Digraph, t *separator.Tree, cfg Config) ([]part, []Stage, error) {
	if g.N() != t.N() {
		return nil, nil, fmt.Errorf("augment: graph has %d vertices, tree %d", g.N(), t.N())
	}
	byLevel := nodesByLevel(t)
	nn := len(t.Nodes)
	db := make([]*matrix.Dense, nn)  // dist_{G(t)} over B(t)×B(t), rows/cols in B order
	hsm := make([]*matrix.Dense, nn) // closed H_S per internal node, in S order
	parts := make([]part, nn)
	errs := make([]error, nn)
	levels := make([]Stage, t.Height+1)
	ex := cfg.ex()
	// One workspace for the whole run: per-node matrices are drawn from it
	// and consumed child matrices are released back after each level, so the
	// run's slab allocations stay O(tree-nodes) instead of O(products).
	ws := matrix.NewWorkspace()

	for level := t.Height; level >= 0; level-- {
		if err := cfg.cancelled(); err != nil {
			return nil, nil, err
		}
		nodes := byLevel[level]
		if len(nodes) == 0 {
			continue
		}
		// One attributed stage per tree level: its counted work/rounds flow
		// into the aggregate Stats unchanged, and additionally land in the
		// level's Stage and, with tracing on, a span.
		err := cfg.attributed(&levels[level], "prep.level",
			[]any{"alg", 41, "level", level, "nodes", len(nodes)},
			func(c Config) error {
				var maxRounds int64
				var mu sync.Mutex
				ex.For(len(nodes), func(i int) {
					id := nodes[i]
					nd := &t.Nodes[id]
					var rounds int64
					var err error
					if nd.IsLeaf() {
						rounds, err = processLeaf41(g, nd, db, c, ws)
					} else {
						rounds, err = processInternal41(t, nd, db, hsm, c, ws)
					}
					if err != nil {
						errs[id] = err
						return
					}
					parts[id] = emitNode41(nd, db[id], hsm[id])
					mu.Lock()
					if rounds > maxRounds {
						maxRounds = rounds
					}
					mu.Unlock()
				})
				for _, id := range nodes {
					if errs[id] != nil {
						return errs[id]
					}
				}
				c.Stats.AddRounds(maxRounds)
				return nil
			})
		if err != nil {
			return nil, nil, err
		}
		for _, id := range nodes {
			levels[level].Contributions += int64(len(parts[id].to))
		}
		// Matrices of the level below have now been fully consumed: release
		// them to the workspace so this level's parents (and the levels
		// above) reuse the slabs.
		if level+1 <= t.Height {
			for _, id := range byLevel[level+1] {
				ws.Put(db[id])
				ws.Put(hsm[id])
				db[id] = nil
				hsm[id] = nil
			}
		}
	}
	return parts, levels, nil
}

// emitNode41 returns E_t = S(t)×S(t) ∪ B(t)×B(t) as node nd's part, with
// the distances computed at nd (hs is nil for leaves).
func emitNode41(nd *separator.Node, dbt, hs *matrix.Dense) part {
	p := newPart(nd)
	if hs != nil {
		p.block(nd.S, nil, hs)
	}
	p.block(nd.B, nil, dbt)
	return p
}

// processLeaf41 computes the leaf's boundary-pair distances by a full
// Floyd-Warshall on the O(1)-size leaf subgraph.
func processLeaf41(g *graph.Digraph, nd *separator.Node, db []*matrix.Dense, cfg Config, ws *matrix.Workspace) (int64, error) {
	full, err := leafClosure(g, nd, cfg, ws)
	if err != nil {
		return 0, err
	}
	B := nd.B
	pos := positions(B, nd.V)
	d := ws.Get(len(B), len(B))
	for i, p := range pos {
		for j, q := range pos {
			d.Set(i, j, full.At(p, q))
		}
	}
	ws.Put(full)
	db[nd.ID] = d
	return int64(len(nd.V)), nil // FW phases on the leaf
}

// processInternal41 runs steps (i)-(v) of Algorithm 4.1 at one internal
// node. Matrices that outlive the call (db, hsm entries) are drawn from ws
// and released by the caller once consumed; intra-call temporaries go
// straight back. Child matrices are indexed by the child's sorted B, so
// every position is a merge-walk of two sorted label sets.
func processInternal41(t *separator.Tree, nd *separator.Node, db, hsm []*matrix.Dense, cfg Config, ws *matrix.Workspace) (int64, error) {
	c1, c2 := nd.Children[0], nd.Children[1]
	db1, db2 := db[c1], db[c2]
	if db1 == nil || db2 == nil {
		return 0, fmt.Errorf("augment: node %d processed before its children", nd.ID)
	}
	S, B := nd.S, nd.B
	B1, B2 := t.Nodes[c1].B, t.Nodes[c2].B
	s1, s2 := positions(S, B1), positions(S, B2) // S(t) in each child's boundary
	b1, b2 := positions(B, B1), positions(B, B2) // B(t) in each child's boundary (-1: absent)
	bs := positions(B, S)                        // B(t) in S(t) (-1: absent)

	// Step (i): H_S with the min of the two child distances. Every s ∈ S(t)
	// lies in B(t1) ∩ B(t2) by construction. Every entry is assigned below,
	// so uninitialized workspace scratch is fine.
	for i, u := range S {
		if s1[i] < 0 || s2[i] < 0 {
			return 0, fmt.Errorf("augment: separator vertex %d missing from child boundary at node %d", u, nd.ID)
		}
	}
	hs := ws.Get(len(S), len(S))
	for i := range S {
		for j := range S {
			w := db1.At(s1[i], s1[j])
			if x := db2.At(s2[i], s2[j]); x < w {
				w = x
			}
			hs.Set(i, j, w)
		}
	}
	cfg.Stats.AddWork(int64(len(S)) * int64(len(S)))

	// Step (ii): close H_S.
	if err := closure(hs, cfg, ws); err != nil {
		ws.Put(hs)
		return 0, fmt.Errorf("%w (separator graph of node %d)", ErrNegativeCycle, nd.ID)
	}
	rounds := closureRounds(len(S), cfg)

	// Steps (iii)+(iv): 3-limited boundary-to-boundary distances through S,
	// as (B×S) ⊗ closed(S×S) ⊗ (S×B). Both factor matrices are fully
	// assigned below.
	wBS := ws.Get(len(B), len(S))
	wSB := ws.Get(len(S), len(B))
	for bi, b := range B {
		if si := bs[bi]; si >= 0 {
			// b is itself a separator vertex of this node: use the closed
			// H_S row/column directly.
			for sj := range S {
				wBS.Set(bi, sj, hs.At(si, sj))
				wSB.Set(sj, bi, hs.At(sj, si))
			}
			continue
		}
		d, p, sp := db1, b1[bi], s1
		if p < 0 {
			d, p, sp = db2, b2[bi], s2
		}
		if p < 0 {
			return 0, fmt.Errorf("augment: boundary vertex %d of node %d in neither child boundary", b, nd.ID)
		}
		for sj, q := range sp {
			wBS.Set(bi, sj, d.At(p, q))
			wSB.Set(sj, bi, d.At(q, p))
		}
	}
	cfg.Stats.AddWork(2 * int64(len(B)) * int64(len(S)))
	var d3 *matrix.Dense
	if len(S) > 0 && len(B) > 0 {
		y := ws.Get(len(B), len(S))
		matrix.MulMinPlusInto(y, wBS, hs, cfg.ex(), cfg.Stats)
		d3 = ws.Get(len(B), len(B))
		matrix.MulMinPlusInto(d3, y, wSB, cfg.ex(), cfg.Stats)
		ws.Put(y)
		rounds += 2 * matrix.MulRounds(len(S))
	} else {
		d3 = ws.GetInf(len(B), len(B))
	}
	ws.Put(wBS)
	ws.Put(wSB)

	// Step (v): combine with within-child boundary distances.
	dbt := d3 // reuse the 3-limited matrix as the output
	for i := range B {
		p1, p2 := b1[i], b2[i]
		for j := range B {
			if q := b1[j]; p1 >= 0 && q >= 0 {
				dbt.SetMin(i, j, db1.At(p1, q))
			}
			if q := b2[j]; p2 >= 0 && q >= 0 {
				dbt.SetMin(i, j, db2.At(p2, q))
			}
		}
		dbt.SetMin(i, i, 0)
	}
	cfg.Stats.AddWork(int64(len(B)) * int64(len(B)))

	db[nd.ID] = dbt
	hsm[nd.ID] = hs
	return rounds + 1, nil
}
