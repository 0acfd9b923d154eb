package exp

import (
	"fmt"

	"sepsp/internal/core"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
)

// PhaseBreakdownExperiment (id E-phases) decomposes the engine's counted
// cost along the two axes the observability layer attributes to: the
// preprocessing work per separator-tree level (Algorithm 4.1 processes
// levels leaves-up, so the per-level profile exposes where the O(n^{3μ})
// work concentrates) and the per-source query work per §3.2 phase kind (the
// ℓ·|E| sweeps vs. the bitonic shortcut-chain phases). Both tables carry a
// "total" row that reproduces the aggregate pram.Stats counts exactly — the
// attribution is exhaustive, not sampled. The per-level counts are the
// ones every Algorithm 4.1 run returns; a caller's sink additionally gets
// the run's metric families and spans.
func PhaseBreakdownExperiment(ex *pram.Executor, scale int, sink *obs.Sink) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	wl, err := MuWorkload(0.5, 4096*scale, 1)
	if err != nil {
		return nil, err
	}
	prepStats := &pram.Stats{}
	eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{
		Ex: ex, UseFloydWarshall: true, PrepStats: prepStats, Obs: sink,
	})
	if err != nil {
		return nil, err
	}

	levels := &Table{
		ID:     "E-phases",
		Title:  fmt.Sprintf("preprocessing work by tree level (%s, Alg 4.1)", wl.Name),
		Header: []string{"level", "nodes", "work", "rounds", "E+ contrib"},
		Notes: []string{
			"counted PRAM cost attributed per separator-tree level; total row equals the aggregate Stats counts",
		},
	}
	perLevel := make(map[int]int, eng.Tree().Height+1)
	for _, node := range eng.Tree().Nodes {
		perLevel[node.Level]++
	}
	var totalWork, totalRounds, totalShortcuts int64
	var totalNodes int
	for L, st := range eng.Augmentation().Levels {
		levels.Rows = append(levels.Rows, []string{
			d(int64(L)), d(int64(perLevel[L])), d(st.Work), d(st.Rounds), d(st.Contributions),
		})
		totalWork += st.Work
		totalRounds += st.Rounds
		totalShortcuts += st.Contributions
		totalNodes += perLevel[L]
	}
	levels.Rows = append(levels.Rows, []string{
		"total", d(int64(totalNodes)), d(totalWork), d(totalRounds), d(totalShortcuts),
	})
	if totalWork != prepStats.Work() || totalRounds != prepStats.Rounds() {
		return nil, fmt.Errorf("exp: per-level attribution (work %d, rounds %d) does not reproduce Stats (%d, %d)",
			totalWork, totalRounds, prepStats.Work(), prepStats.Rounds())
	}

	phases := &Table{
		ID:     "E-phases",
		Title:  fmt.Sprintf("per-source query work by phase kind (%s)", wl.Name),
		Header: []string{"kind", "phases", "relax/source"},
		Notes: []string{
			"static schedule breakdown; the ell sweeps scan |E| original edges each, the level phases scan E U E+ once per direction",
		},
	}
	var totalPhases int
	var totalRelax int64
	for _, pw := range eng.Schedule().Breakdown() {
		phases.Rows = append(phases.Rows, []string{string(pw.Kind), d(int64(pw.Phases)), d(pw.Work)})
		totalPhases += pw.Phases
		totalRelax += pw.Work
	}
	phases.Rows = append(phases.Rows, []string{"total", d(int64(totalPhases)), d(totalRelax)})
	if totalPhases != eng.Schedule().Phases() || totalRelax != eng.Schedule().WorkPerSource() {
		return nil, fmt.Errorf("exp: phase breakdown (%d phases, %d work) does not reproduce the schedule (%d, %d)",
			totalPhases, totalRelax, eng.Schedule().Phases(), eng.Schedule().WorkPerSource())
	}
	return &Result{Tables: []*Table{levels, phases}}, nil
}
