package sepsp

// This file is the benchmark harness required by the reproduction: one
// Benchmark per paper artifact (Table 1, Figures 1-2, and each quantitative
// claim indexed in DESIGN.md), each delegating to the experiment registry in
// internal/exp — `go run ./cmd/benchtab` prints the same tables — plus
// conventional micro-benchmarks of the hot kernels.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"sepsp/internal/augment"
	"sepsp/internal/baseline"
	"sepsp/internal/bitmat"
	"sepsp/internal/core"
	"sepsp/internal/exp"
	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/oracle"
	"sepsp/internal/pram"
	"sepsp/internal/reach"
	"sepsp/internal/separator"
)

// benchExperiment runs a registered experiment once per iteration and keeps
// its tables from being optimized away. Heavy experiments naturally run with
// b.N == 1.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	ex := pram.NewExecutor(-1)
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(id, ex, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range res.Tables {
			t.Render(io.Discard)
		}
	}
}

// One benchmark per table/figure/claim (see DESIGN.md per-experiment index).

func BenchmarkTable1Preprocess(b *testing.B)      { benchExperiment(b, "T1-prep") }
func BenchmarkTable1PerSource(b *testing.B)       { benchExperiment(b, "T1-query") }
func BenchmarkFigure1Tree(b *testing.B)           { benchExperiment(b, "F1") }
func BenchmarkFigure2RightShortcuts(b *testing.B) { benchExperiment(b, "F2") }
func BenchmarkDiameterBound(b *testing.B)         { benchExperiment(b, "E-diam") }
func BenchmarkAugmentationSize(b *testing.B)      { benchExperiment(b, "E-esize") }
func BenchmarkAlg41vs43(b *testing.B)             { benchExperiment(b, "E-alg41v43") }
func BenchmarkPhaseSchedule(b *testing.B)         { benchExperiment(b, "E-sched") }
func BenchmarkPhaseBreakdown(b *testing.B)        { benchExperiment(b, "E-phases") }
func BenchmarkSequentialCrossover(b *testing.B)   { benchExperiment(b, "E-seq") }
func BenchmarkReachability(b *testing.B)          { benchExperiment(b, "E-reach") }
func BenchmarkPlanarQFaces(b *testing.B)          { benchExperiment(b, "E-planar") }
func BenchmarkSpeedup(b *testing.B)               { benchExperiment(b, "E-speedup") }
func BenchmarkNegativeCycles(b *testing.B)        { benchExperiment(b, "E-negcyc") }
func BenchmarkSemiring(b *testing.B)              { benchExperiment(b, "E-semiring") }
func BenchmarkConstraints(b *testing.B)           { benchExperiment(b, "E-ineq") }
func BenchmarkPairsOracle(b *testing.B)           { benchExperiment(b, "E-pairs") }
func BenchmarkFinderAblation(b *testing.B)        { benchExperiment(b, "E-finders") }
func BenchmarkBuildThroughput(b *testing.B)       { benchExperiment(b, "E-build") }
func BenchmarkResultCache(b *testing.B)           { benchExperiment(b, "E-cache") }

// Micro-benchmarks of the kernels (wall clock, allocations).

func benchWorkload(b *testing.B, mu float64, n int) *exp.Workload {
	b.Helper()
	wl, err := exp.MuWorkload(mu, n, 42)
	if err != nil {
		b.Fatal(err)
	}
	return wl
}

func BenchmarkPreprocessAlg41Grid4096(b *testing.B) {
	wl := benchWorkload(b, 0.5, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := augment.Alg41(wl.G, wl.Tree, augment.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessAlg43Grid4096(b *testing.B) {
	wl := benchWorkload(b, 0.5, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := augment.Alg43(wl.G, wl.Tree, augment.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild* track the index-build path the cache-blocked min-plus
// kernels feed (DESIGN.md "Build performance"): full Alg41/Alg43 runs,
// sequential and parallel, with allocation counts — the wall-clock and
// alloc figures that BENCH_build.json pins via `make bench-build`.

func benchBuild(b *testing.B, alg func(*graph.Digraph, *separator.Tree, augment.Config) (*augment.Result, error), p int) {
	b.Helper()
	wl := benchWorkload(b, 0.5, 4096)
	ex := pram.NewExecutor(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg(wl.G, wl.Tree, augment.Config{Ex: ex}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildAlg41Grid4096(b *testing.B)   { benchBuild(b, augment.Alg41, 1) }
func BenchmarkBuildAlg41Grid4096P4(b *testing.B) { benchBuild(b, augment.Alg41, 4) }
func BenchmarkBuildAlg43Grid4096(b *testing.B)   { benchBuild(b, augment.Alg43, 1) }
func BenchmarkBuildAlg43Grid4096P4(b *testing.B) { benchBuild(b, augment.Alg43, 4) }

func BenchmarkQueryScheduledGrid16384(b *testing.B) {
	wl := benchWorkload(b, 0.5, 16384)
	eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SSSP(i%wl.G.N(), nil)
	}
}

func BenchmarkQueryDijkstraGrid16384(b *testing.B) {
	wl := benchWorkload(b, 0.5, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Dijkstra(wl.G, i%wl.G.N(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryBellmanFordGrid16384(b *testing.B) {
	wl := benchWorkload(b, 0.5, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.BellmanFord(wl.G, i%wl.G.N(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReachQueryGrid16384(b *testing.B) {
	wl := benchWorkload(b, 0.5, 16384)
	eng, err := reach.NewEngine(wl.G, wl.Tree, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.From(i%wl.G.N(), nil)
	}
}

func BenchmarkOracleBuildGrid4096(b *testing.B) {
	wl := benchWorkload(b, 0.5, 4096)
	eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.New(eng, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleQueryGrid4096(b *testing.B) {
	wl := benchWorkload(b, 0.5, 4096)
	eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	orc, err := oracle.New(eng, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	o := &Oracle{o: orc} // the public query, endpoint checks included
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Dist(i%wl.G.N(), (i*31)%wl.G.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinPlusMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := matrix.New(256, 256)
	for i := 0; i < 256; i++ {
		for j := 0; j < 256; j++ {
			if rng.Float64() < 0.3 {
				d.Set(i, j, rng.Float64())
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.MulMinPlus(d, d, pram.Sequential, nil)
	}
}

func BenchmarkBitmatMul1024(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := bitmat.New(1024)
	for i := 0; i < 1024; i++ {
		for j := 0; j < 1024; j++ {
			if rng.Float64() < 0.01 {
				m.Set(i, j, true)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitmat.Mul(m, m, pram.Sequential, nil)
	}
}

func BenchmarkIndexBuildPublicAPI(b *testing.B) {
	wl := benchWorkload(b, 0.5, 1024)
	g := NewGraph(wl.G.N())
	wl.G.Edges(func(from, to int, w float64) bool {
		g.AddEdge(from, to, w)
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWithWeightsGrid4096 times the reweight path a Manager swap
// runs: WithWeights on a 64×64 grid, alternating between two weight sets
// on the same directed edges, so every call reuses the previous index's E+
// layout and schedule arena and reruns only the min-plus work, the weight
// gather and the weight scatter (see DESIGN.md "Build performance").
func BenchmarkWithWeightsGrid4096(b *testing.B) {
	g1, grid := gridGraph(b, 64, 64, 9)
	g2, _ := gridGraph(b, 64, 64, 10)
	ix, err := Build(g1, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		b.Fatal(err)
	}
	sets := [2]*Graph{g2, g1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix, err = ix.WithWeights(sets[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSSPHot times the steady-state single-source query through the
// public API — every phase of the SoA phase arena, with run-delta
// tracking and the workspace pools warm (see DESIGN.md "Query
// performance"). Compare against BenchmarkTable1PerSource for the cold,
// per-artifact view.
func BenchmarkSSSPHot(b *testing.B) {
	for _, side := range []int{32, 64} {
		b.Run(fmt.Sprintf("n=%d", side*side), func(b *testing.B) {
			g, grid := gridGraph(b, side, side, 9)
			ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
			if err != nil {
				b.Fatal(err)
			}
			src := g.N() / 2
			ctx := context.Background()
			mustSSSP(b, ix, src) // warm the workspace pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.SSSPContext(ctx, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSourcesBatchedWave times the multi-source wave across wave
// sizes k and worker counts P: a wave splits its distinct sources into
// lane blocks, one pass over the schedule per block, handed to the workers
// (see DESIGN.md "Query performance"). The k=1 rows are a solo server wave
// and should cost about what BenchmarkSSSPHot does; P=4 rows on a
// multi-CPU machine show the wave's scaling; counted work is independent
// of P.
func BenchmarkSourcesBatchedWave(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("k=%d/P=%d", k, p), func(b *testing.B) {
				g, grid := gridGraph(b, 64, 64, 9)
				ix, err := Build(g, &Options{
					Decomposition: GridDecomposition(grid.Coord),
					Workers:       p,
				})
				if err != nil {
					b.Fatal(err)
				}
				srcs := make([]int, k)
				for j := range srcs {
					srcs[j] = (g.N()/2 + j*37) % g.N() // k=1: BenchmarkSSSPHot's source
				}
				ctx := context.Background()
				if _, err := ix.SourcesBatchedContext(ctx, srcs); err != nil { // warm the workspace pool
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ix.SourcesBatchedContext(ctx, srcs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
