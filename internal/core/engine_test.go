package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sepsp/internal/baseline"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

const distEps = 1e-9

func almostEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= distEps*scale
}

// buildGridEngine builds a w×h grid with the given weight function and a
// coordinate-finder decomposition, returning engine and graph.
func buildGridEngine(t *testing.T, dims []int, wf gen.WeightFn, seed int64, cfg Config) (*Engine, *graph.Digraph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := gen.NewGrid(dims, wf, rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 6})
	if err != nil {
		t.Fatalf("separator.Build: %v", err)
	}
	if err := tree.Validate(sk); err != nil {
		t.Fatalf("tree.Validate: %v", err)
	}
	eng, err := NewEngine(grid.G, tree, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng, grid.G
}

func checkAgainstBF(t *testing.T, eng *Engine, g *graph.Digraph, srcs []int) {
	t.Helper()
	for _, src := range srcs {
		want, err := baseline.BellmanFord(g, src, nil)
		if err != nil {
			t.Fatalf("BellmanFord(%d): %v", src, err)
		}
		got := eng.SSSP(src, nil)
		for v := range want {
			if !almostEqual(got[v], want[v]) {
				t.Fatalf("src=%d v=%d: engine=%v bf=%v", src, v, got[v], want[v])
			}
		}
	}
}

func TestEngineGridPositiveWeights(t *testing.T) {
	for _, alg := range []Algorithm{Alg41, Alg43} {
		for _, dims := range [][]int{{7, 9}, {5, 5, 3}, {31, 2}} {
			eng, g := buildGridEngine(t, dims, gen.UniformWeights(0.1, 10), 42, Config{Algorithm: alg})
			checkAgainstBF(t, eng, g, []int{0, g.N() / 2, g.N() - 1})
		}
	}
}

func TestEngineGridNegativeWeights(t *testing.T) {
	// Potential-shifted weights: negative edges, no negative cycles.
	rng := rand.New(rand.NewSource(7))
	grid := gen.NewGrid([]int{8, 8}, gen.UniformWeights(0, 5), rng)
	shifted, _ := gen.PotentialShift(grid.G, 20, rng)
	sk := graph.NewSkeleton(shifted)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, alg := range []Algorithm{Alg41, Alg43} {
		eng, err := NewEngine(shifted, tree, Config{Algorithm: alg})
		if err != nil {
			t.Fatalf("NewEngine(alg=%d): %v", alg, err)
		}
		checkAgainstBF(t, eng, shifted, []int{0, 17, 63})
	}
}

func TestEngineKTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kt := gen.NewKTree(150, 3, gen.UniformWeights(0.5, 4), rng)
	sk := graph.NewSkeleton(kt.G)
	tree, err := separator.Build(sk, &separator.TreeDecompFinder{Bags: kt.Decomp.Bags, Parent: kt.Decomp.Parent}, separator.Options{LeafSize: 8})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.Validate(sk); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, alg := range []Algorithm{Alg41, Alg43} {
		eng, err := NewEngine(kt.G, tree, Config{Algorithm: alg})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		checkAgainstBF(t, eng, kt.G, []int{0, 75, 149})
	}
}

func TestEngineSSSPTreeAndPath(t *testing.T) {
	eng, g := buildGridEngine(t, []int{9, 9}, gen.UniformWeights(1, 3), 11, Config{})
	src := 0
	dist := eng.SSSP(src, nil)
	parent := TightTree(g, src, dist)
	for v := 0; v < g.N(); v++ {
		if math.IsInf(dist[v], 1) {
			if parent[v] != -1 {
				t.Fatalf("unreachable %d has parent %d", v, parent[v])
			}
			continue
		}
		if parent[v] == -1 {
			t.Fatalf("reachable vertex %d has no parent", v)
		}
		path, ok := PathTo(parent, src, v)
		if !ok {
			t.Fatalf("no path to %d", v)
		}
		// The path must exist in g and sum to dist[v].
		sum := 0.0
		for i := 0; i+1 < len(path); i++ {
			w, ok := g.HasEdge(path[i], path[i+1])
			if !ok {
				t.Fatalf("path edge (%d,%d) not in graph", path[i], path[i+1])
			}
			sum += w
		}
		if !almostEqual(sum, dist[v]) {
			t.Fatalf("path to %d sums to %v, dist %v", v, sum, dist[v])
		}
	}
}

func TestEngineMultiSourceParallel(t *testing.T) {
	eng, g := buildGridEngine(t, []int{10, 10}, gen.UniformWeights(0.5, 2), 5,
		Config{Ex: pram.NewExecutor(4)})
	srcs := []int{0, 13, 50, 99}
	st := &pram.Stats{}
	got, err := eng.SourcesBatchedContext(context.Background(), srcs, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		want, _ := baseline.BellmanFord(g, src, nil)
		for v := range want {
			if !almostEqual(got[i][v], want[v]) {
				t.Fatalf("src=%d v=%d: got %v want %v", src, v, got[i][v], want[v])
			}
		}
	}
	if st.Work() == 0 || st.Rounds() == 0 {
		t.Fatalf("stats not recorded: work=%d rounds=%d", st.Work(), st.Rounds())
	}
}

func TestEngineNegativeCycleDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	grid := gen.NewGrid([]int{6, 6}, gen.UniformWeights(0.1, 1), rng)
	planted, _ := gen.PlantNegativeCycle(grid.G, 4, rng)
	sk := graph.NewSkeleton(planted)
	tree, err := separator.Build(sk, &separator.BFSFinder{}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, alg := range []Algorithm{Alg41, Alg43} {
		if _, err := NewEngine(planted, tree, Config{Algorithm: alg}); err == nil {
			t.Fatalf("alg=%d: expected negative-cycle error", alg)
		}
	}
}

// TestScheduleWorkMatchesRun pins the counted-cost invariant: every
// executor runs every phase, so one query reports exactly WorkPerSource
// work, Phases rounds and no skipped work; a wave of k distinct sources
// reports k·WorkPerSource and Phases, and each duplicate source adds
// exactly WorkPerSource to SkippedWork. Every path relaxes the same
// canonical edge order, so its distances match the reference relaxer's bit
// for bit.
func TestScheduleWorkMatchesRun(t *testing.T) {
	eng, g := buildGridEngine(t, []int{12, 12}, gen.UniformWeights(1, 2), 1, Config{})
	obsEng, err := NewEngine(g, eng.Tree(), Config{Obs: &obs.Sink{Metrics: obs.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	par := NewEngineFromParts(g, eng.Tree(), eng.Augmentation(), pram.NewExecutor(2))
	wps, phases := eng.Schedule().WorkPerSource(), int64(eng.Schedule().Phases())
	const src = 5
	ref := eng.SSSPReference(src, nil)
	init := newDistVector(g.N())
	init[src] = 0

	for _, tc := range []struct {
		name string
		run  func(st *pram.Stats) []float64
	}{
		{"SSSPContext", func(st *pram.Stats) []float64 {
			d, err := eng.SSSPContext(context.Background(), src, st)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"observed", func(st *pram.Stats) []float64 { return obsEng.SSSP(src, st) }},
		{"SSSPFrom", func(st *pram.Stats) []float64 { return eng.SSSPFrom(init, st) }},
		{"SSSPReference", func(st *pram.Stats) []float64 { return eng.SSSPReference(src, st) }},
	} {
		st := &pram.Stats{}
		dist := tc.run(st)
		if st.Work() != wps || st.Rounds() != phases || st.SkippedWork() != 0 {
			t.Errorf("%s: work/rounds/skipped = %d/%d/%d, want %d/%d/0",
				tc.name, st.Work(), st.Rounds(), st.SkippedWork(), wps, phases)
		}
		for v := range ref {
			if math.Float64bits(dist[v]) != math.Float64bits(ref[v]) {
				t.Fatalf("%s: dist[%d]=%v, reference %v", tc.name, v, dist[v], ref[v])
			}
		}
	}

	for _, w := range []struct {
		srcs     []int
		k, dupes int64
	}{
		{[]int{0, 7, 50, 143}, 4, 0},
		{[]int{0, 7, 0, 50, 7, 0}, 3, 3},
	} {
		for _, e := range []*Engine{eng, par} {
			st := &pram.Stats{}
			e.SourcesBatched(w.srcs, st)
			if st.Work() != w.k*wps || st.Rounds() != phases || st.SkippedWork() != w.dupes*wps {
				t.Errorf("wave %v on P=%d: work/rounds/skipped = %d/%d/%d, want %d/%d/%d",
					w.srcs, e.ex.P(), st.Work(), st.Rounds(), st.SkippedWork(), w.k*wps, phases, w.dupes*wps)
			}
		}
	}
}
