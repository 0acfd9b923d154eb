package exp

import (
	"fmt"
	"math"

	"sepsp/internal/augment"
	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/pram"
)

// DiameterExperiment measures diam(G+) against Theorem 3.1's bound
// 4·d_G + 2ℓ + 1 on several families.
func DiameterExperiment(ex *pram.Executor) (*Table, error) {
	t := &Table{
		ID:     "E-diam",
		Title:  "Theorem 3.1(ii): minimum-weight diameter of the augmented graph",
		Header: []string{"family", "n", "d_G", "l", "diam(G)", "diam(G+)", "bound 4d+2l+1"},
		Notes:  []string{"diam measured by hop-bounded Bellman-Ford from every source (exact)"},
	}
	cases := []struct {
		mu   float64
		n    int
		name string
	}{
		{0, 300, ""}, {0.5, 225, ""}, {2.0 / 3.0, 216, ""}, {0.75, 256, ""},
	}
	for _, c := range cases {
		wl, err := MuWorkload(c.mu, c.n, 7)
		if err != nil {
			return nil, err
		}
		res, err := augment.Alg41(wl.G, wl.Tree, augment.Config{Ex: ex})
		if err != nil {
			return nil, err
		}
		bound := augment.DiameterBound(wl.Tree)
		edges := append(wl.G.EdgeList(), res.Edges...)
		diamPlus := augment.MinWeightDiameter(wl.G.N(), edges, bound+4, ex)
		diamPlain := augment.MinWeightDiameter(wl.G.N(), wl.G.EdgeList(), wl.G.N(), ex)
		l := wl.Tree.Ell()
		t.Rows = append(t.Rows, []string{
			wl.Name, d(int64(wl.G.N())), d(int64(wl.Tree.Height)), d(int64(l)),
			d(int64(diamPlain)), d(int64(diamPlus)), d(int64(bound)),
		})
		if diamPlus > bound {
			return nil, fmt.Errorf("exp: diameter bound violated on %s: %d > %d", wl.Name, diamPlus, bound)
		}
	}
	return t, nil
}

// AugmentSizeExperiment reproduces Theorem 5.1(iii): |E| = O(n + n^{2μ})
// and |E+| = ˜O(n + n^{2μ}), via fitted slopes.
func AugmentSizeExperiment(ex *pram.Executor, scale int) (*Table, error) {
	if scale < 1 {
		scale = 1
	}
	t := &Table{
		ID:     "E-esize",
		Title:  "Theorem 5.1(iii): size of the augmentation E+",
		Header: []string{"mu", "n", "|E|", "|E+| dedup", "|E+| raw", "n^{2mu}"},
		Notes:  []string{"paper: |E+| = O(n^{2mu}) for 2mu>1, O(n log n) at mu=1/2, O(n) below"},
	}
	for _, mu := range Table1Mus {
		var ns, sizes []float64
		for _, n := range table1Sizes(mu, scale) {
			wl, err := MuWorkload(mu, n, 3)
			if err != nil {
				return nil, err
			}
			res, err := augment.Alg41(wl.G, wl.Tree, augment.Config{Ex: ex, UseFloydWarshall: true})
			if err != nil {
				return nil, err
			}
			nn := float64(wl.G.N())
			ns = append(ns, nn)
			sizes = append(sizes, float64(len(res.Edges)))
			t.Rows = append(t.Rows, []string{
				f(mu), d(int64(wl.G.N())), d(int64(wl.G.M())),
				d(int64(len(res.Edges))), d(res.RawCount), f(math.Pow(nn, 2*mu)),
			})
		}
		t.Rows = append(t.Rows, []string{
			f(mu), "→ fitted slope", "", f(FitSlope(ns, sizes)),
			fmt.Sprintf("predicted %s", f(queryExponent(mu))), "",
		})
	}
	return t, nil
}

// AlgorithmComparison reproduces the Section 4.1 vs 4.2 tradeoff: Algorithm
// 4.3 runs in fewer parallel rounds but performs more work.
func AlgorithmComparison(ex *pram.Executor, scale int) (*Table, error) {
	if scale < 1 {
		scale = 1
	}
	t := &Table{
		ID:     "E-alg41v43",
		Title:  "Algorithm 4.1 vs Algorithm 4.3: work/time tradeoff",
		Header: []string{"n", "alg", "work", "rounds"},
		Notes: []string{
			"paper: Alg 4.3 saves a Θ(log n) time factor over per-level processing and pays a Θ(log n) work factor",
		},
	}
	for _, n := range []int{1024 * scale, 4096 * scale} {
		wl, err := MuWorkload(0.5, n, 5)
		if err != nil {
			return nil, err
		}
		for _, alg := range []struct {
			name string
			run  func() (*pram.Stats, error)
		}{
			{"4.1 (leaves-up)", func() (*pram.Stats, error) {
				st := &pram.Stats{}
				_, err := augment.Alg41(wl.G, wl.Tree, augment.Config{Ex: ex, Stats: st})
				return st, err
			}},
			{"4.3 (simultaneous)", func() (*pram.Stats, error) {
				st := &pram.Stats{}
				_, err := augment.Alg43(wl.G, wl.Tree, augment.Config{Ex: ex, Stats: st})
				return st, err
			}},
		} {
			st, err := alg.run()
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				d(int64(wl.G.N())), alg.name, d(st.Work()), d(st.Rounds()),
			})
		}
	}
	return t, nil
}

// ScheduleExperiment reproduces the Section 3.2 claim: the level-scheduled
// Bellman-Ford does O(ℓ|E| + |E ∪ E+|) work per source, versus
// O(|E ∪ E+| · diam(G+)) for the naive parallel Bellman-Ford on the
// augmented graph and O(|E| · diam(G)) on the original graph.
func ScheduleExperiment(ex *pram.Executor, scale int) (*Table, error) {
	if scale < 1 {
		scale = 1
	}
	t := &Table{
		ID:     "E-sched",
		Title:  "Section 3.2: per-source work of the phase-scheduled query",
		Header: []string{"n", "method", "work/source", "phases"},
	}
	for _, n := range []int{1024 * scale, 4096 * scale} {
		wl, err := MuWorkload(0.5, n, 6)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{Ex: ex})
		if err != nil {
			return nil, err
		}
		st := &pram.Stats{}
		want := eng.SSSP(0, st)
		t.Rows = append(t.Rows, []string{
			d(int64(wl.G.N())), "scheduled (Sec 3.2)", d(st.Work()), d(st.Rounds()),
		})
		// Naive parallel BF on G+: scan all of E ∪ E+ every phase,
		// phase-synchronously (reads see the previous phase only), so the
		// phase count equals diam(G+)+1 as in Section 2.2.
		edges := append(wl.G.EdgeList(), eng.Augmentation().Edges...)
		distN, naiveWork, phases := syncBF(wl.G.N(), edges, 0)
		for v := range want {
			if math.Abs(want[v]-distN[v]) > 1e-9*(1+math.Abs(want[v])) {
				return nil, fmt.Errorf("exp: scheduled and naive distances disagree at %d", v)
			}
		}
		t.Rows = append(t.Rows, []string{
			d(int64(wl.G.N())), "sync BF on G+ (diam(G+) phases)", d(naiveWork), d(int64(phases)),
		})
		// Naive parallel BF on G alone: diam(G) phases.
		_, gWork, gPhases := syncBF(wl.G.N(), wl.G.EdgeList(), 0)
		t.Rows = append(t.Rows, []string{
			d(int64(wl.G.N())), "sync BF on G (no E+)", d(gWork), d(int64(gPhases)),
		})
	}
	return t, nil
}

// syncBF runs phase-synchronous Bellman-Ford over an edge list (each phase
// reads only the previous phase's distances — the PRAM formulation of
// Section 2.2) and returns distances, total work and the phase count.
func syncBF(n int, edges []graph.Edge, src int) ([]float64, int64, int) {
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = math.Inf(1)
	}
	cur[src] = 0
	next := make([]float64, n)
	var work int64
	phases := 0
	for {
		copy(next, cur)
		changed := false
		for _, e := range edges {
			if du := cur[e.From]; du+e.W < next[e.To] {
				next[e.To] = du + e.W
				changed = true
			}
		}
		work += int64(len(edges))
		phases++
		cur, next = next, cur
		if !changed {
			return cur, work, phases
		}
	}
}
