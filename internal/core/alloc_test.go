//go:build !race

package core

// Allocation-regression tests for the pooled engine query paths, excluded
// under -race because the detector's instrumentation inflates the counts
// (`make check` runs them in the plain test pass).

import (
	"testing"

	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
)

// TestSourcesBatchedWaveSteadyStateAllocs pins a k=32 wave on a P=2
// executor: the wave state, its per-block closure, the dispatcher's round
// bookkeeping and every block's lane matrix are pooled, leaving the k
// result rows and their spine.
func TestSourcesBatchedWaveSteadyStateAllocs(t *testing.T) {
	eng, g := buildGridEngine(t, []int{12, 12}, gen.UniformWeights(0.5, 2), 9, Config{Ex: pram.NewExecutor(2)})
	srcs := make([]int, 32)
	for j := range srcs {
		srcs[j] = (j * 7) % g.N()
	}
	eng.SourcesBatched(srcs, nil)
	budget := float64(len(srcs)) + 2
	if avg := testing.AllocsPerRun(50, func() { _ = eng.SourcesBatched(srcs, nil) }); avg > budget {
		t.Fatalf("SourcesBatched allocates %.1f objects per call, want <= %g", avg, budget)
	}
}

// TestSSSPReferenceAllocsOnlyItsResult: the reference relaxer walks the
// arena in place, so even its first call on a fresh engine allocates only
// the returned distance vector.
func TestSSSPReferenceAllocsOnlyItsResult(t *testing.T) {
	const runs = 5
	engs := make([]*Engine, runs+1) // AllocsPerRun makes one warm-up call
	for i := range engs {
		engs[i], _ = buildGridEngine(t, []int{12, 12}, gen.UniformWeights(0.5, 2), 9, Config{})
	}
	i := 0
	if avg := testing.AllocsPerRun(runs, func() { _ = engs[i].SSSPReference(0, nil); i++ }); avg != 1 {
		t.Fatalf("first SSSPReference on a fresh engine allocates %.1f objects, want 1", avg)
	}
}
