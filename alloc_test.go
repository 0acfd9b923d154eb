//go:build !race

package sepsp

// Allocation-regression tests for the pooled query paths. Excluded under
// -race because the race detector instruments allocations and inflates the
// counts; `make check` still runs them in the plain test pass.

import (
	"context"
	"runtime"
	"testing"
)

// TestSSSPSteadyStateAllocs locks in the zero-scratch query path: after
// warmup, one SSSP call may allocate at most its result slice plus one —
// the acceptance bound of the concurrent-serving redesign (≤ 2).
func TestSSSPSteadyStateAllocs(t *testing.T) {
	g, grid := gridGraph(t, 12, 12, 9)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustSSSP(t, ix, 0) // warm the engine's workspace pool
	if avg := testing.AllocsPerRun(50, func() { _, _ = ix.SSSPContext(ctx, 1) }); avg > 2 {
		t.Fatalf("SSSP allocates %.1f objects per call, want <= 2", avg)
	}
}

// TestSSSPTreeSteadyStateAllocs bounds the tree query: result dist + parent
// plus pooled queue scratch.
func TestSSSPTreeSteadyStateAllocs(t *testing.T) {
	g, grid := gridGraph(t, 12, 12, 9)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, _, _ = ix.SSSPTreeContext(ctx, 0)
	if avg := testing.AllocsPerRun(50, func() { _, _, _ = ix.SSSPTreeContext(ctx, 1) }); avg > 4 {
		t.Fatalf("SSSPTreeContext allocates %.1f objects per call, want <= 4", avg)
	}
}

// TestBuildAllocBudget pins the build path's allocation count: with the
// matrix.Workspace arena recycling every per-node closure buffer and the
// ping-pong ...Into kernels writing into preallocated destinations, a full
// Build (graph conversion, separator tree, augmentation, engine setup) on a
// fixed 16×16 grid stays within a budget of O(tree-nodes) small allocations
// (~11.4k measured; budget leaves ~30% headroom for toolchain drift). A
// per-product allocation regression in the min-plus layer shows up here as
// an order-of-magnitude jump.
func TestBuildAllocBudget(t *testing.T) {
	const budget = 15000
	g, grid := gridGraph(t, 16, 16, 9)
	opt := &Options{Decomposition: GridDecomposition(grid.Coord)}
	if _, err := Build(g, opt); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Build(g, opt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("Build allocates %.0f objects per run, budget %d", avg, budget)
	}
}

// TestSourcesBatchedSteadyStateAllocs bounds the batched wave: the k result
// rows and their spine, with the k×n working buffer pooled.
func TestSourcesBatchedSteadyStateAllocs(t *testing.T) {
	g, grid := gridGraph(t, 12, 12, 9)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []int{0, 5, 9, 17}
	ctx := context.Background()
	if _, err := ix.SourcesBatchedContext(ctx, srcs); err != nil {
		t.Fatal(err)
	}
	k := float64(len(srcs))
	if avg := testing.AllocsPerRun(50, func() { _, _ = ix.SourcesBatchedContext(ctx, srcs) }); avg > k+2 {
		t.Fatalf("SourcesBatched allocates %.1f objects per call, want <= %g (k rows + spine + slack)", avg, k+2)
	}
}

// TestReachableFirstCallAllocs pins that Reachable builds no engine of its
// own: on each of several freshly built indexes, the first Reachable
// allocates at most the distance row and the set, within SSSPContext's
// bound of 2 plus one. The first query of any kind on an engine also
// allocates the engine's pooled workspace, so one SSSPContext from
// another source runs before it.
func TestReachableFirstCallAllocs(t *testing.T) {
	g, grid := gridGraph(t, 12, 12, 9)
	opt := &Options{Decomposition: GridDecomposition(grid.Coord)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		ix, err := Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		mustSSSP(t, ix, i+1)
		runtime.ReadMemStats(&before)
		_, err = ix.Reachable(i)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; n > 3 {
			t.Fatalf("index %d: first Reachable allocates %d objects, want <= 3", i, n)
		}
	}
}

// TestSSSPTelemetryAllocs pins the metrics-only instrumented query path:
// with Options.Telemetry set and tracing off, a single-source query and a
// one-source wave allocate no more than on the uninstrumented index (3 for
// the wave), because the engine resolved its counters when the Telemetry
// was attached and builds no series name or span argument per phase.
func TestSSSPTelemetryAllocs(t *testing.T) {
	g, grid := gridGraph(t, 32, 32, 9)
	ctx := context.Background()
	srcs := []int{1}
	allocs := func(opt *Options) (sssp, wave float64) {
		ix, err := Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		mustSSSP(t, ix, 0) // warm the engine's workspace pools
		if _, err := ix.SourcesBatchedContext(ctx, srcs); err != nil {
			t.Fatal(err)
		}
		sssp = testing.AllocsPerRun(50, func() { _, _ = ix.SSSPContext(ctx, 1) })
		wave = testing.AllocsPerRun(50, func() { _, _ = ix.SourcesBatchedContext(ctx, srcs) })
		return sssp, wave
	}
	plainSSSP, plainWave := allocs(&Options{Decomposition: GridDecomposition(grid.Coord)})
	tel := NewTelemetry(nil)
	telSSSP, telWave := allocs(&Options{Decomposition: GridDecomposition(grid.Coord), Telemetry: tel})
	if telSSSP > plainSSSP || telWave > plainWave || telWave > 3 {
		t.Fatalf("instrumented SSSP %.1f / wave %.1f allocs per call, uninstrumented %.1f / %.1f (wave bound 3)",
			telSSSP, telWave, plainSSSP, plainWave)
	}
	if tel.reg.CounterValue("sepsp_query_phases_total") == 0 {
		t.Fatal("the instrumented queries recorded no phases")
	}
}
