package sepsp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sepsp/internal/baseline"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
)

func gridGraph(t testing.TB, w, h int, seed int64) (*Graph, *gen.Grid) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := gen.NewGrid([]int{w, h}, gen.UniformWeights(0.5, 3), rng)
	g := NewGraph(grid.G.N())
	grid.G.Edges(func(from, to int, wt float64) bool {
		g.AddEdge(from, to, wt)
		return true
	})
	return g, grid
}

// mustSSSP runs SSSPContext under a background context and fails the test
// on a query error. Call it only from the test's own goroutine.
func mustSSSP(t testing.TB, ix *Index, src int) []float64 {
	t.Helper()
	dist, err := ix.SSSPContext(context.Background(), src)
	if err != nil {
		t.Fatalf("SSSPContext(%d): %v", src, err)
	}
	return dist
}

func mustPath(t testing.TB, ix *Index, src, dst int) ([]int, float64, bool) {
	t.Helper()
	path, w, ok, err := ix.PathContext(context.Background(), src, dst)
	if err != nil {
		t.Fatalf("PathContext(%d, %d): %v", src, dst, err)
	}
	return path, w, ok
}

func mustDist(t testing.TB, ix *Index, u, v int) float64 {
	t.Helper()
	d, err := ix.DistContext(context.Background(), u, v)
	if err != nil {
		t.Fatalf("DistContext(%d, %d): %v", u, v, err)
	}
	return d
}

func refGraph(g *Graph) *graph.Digraph {
	// Rebuild the internal digraph for the baseline (Build consumes the
	// builder non-destructively, so this is safe).
	return g.b.Build()
}

func TestBuildAndQueryAllDecompositions(t *testing.T) {
	gg, grid := gridGraph(t, 9, 8, 1)
	ref := refGraph(gg)
	for name, opt := range map[string]*Options{
		"auto":   nil,
		"coords": {Decomposition: GridDecomposition(grid.Coord)},
		"alg43":  {Decomposition: GridDecomposition(grid.Coord), Algorithm: Simultaneous},
		"par":    {Decomposition: GridDecomposition(grid.Coord), Workers: 4},
	} {
		ix, err := Build(gg, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, src := range []int{0, 35, 71} {
			want, _ := baseline.BellmanFord(ref, src, nil)
			got := mustSSSP(t, ix, src)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
					t.Fatalf("%s src=%d v=%d: %v vs %v", name, src, v, got[v], want[v])
				}
			}
		}
	}
}

func TestBuildGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	geo := gen.NewGeometric(250, 2, 0.12, gen.UniformWeights(0.1, 1), rng)
	g := NewGraph(geo.G.N())
	geo.G.Edges(func(from, to int, w float64) bool {
		g.AddEdge(from, to, w)
		return true
	})
	ix, err := Build(g, &Options{Decomposition: GeometricDecomposition(geo.Points, 0.12)})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := baseline.BellmanFord(geo.G, 0, nil)
	got := mustSSSP(t, ix, 0)
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
			t.Fatalf("reachability mismatch at %d", v)
		}
		if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9*(1+want[v]) {
			t.Fatalf("v=%d: %v vs %v", v, got[v], want[v])
		}
	}
}

func TestBuildKTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kt := gen.NewKTree(120, 2, gen.UniformWeights(1, 2), rng)
	g := NewGraph(kt.G.N())
	kt.G.Edges(func(from, to int, w float64) bool {
		g.AddEdge(from, to, w)
		return true
	})
	ix, err := Build(g, &Options{Decomposition: TreeDecomposition(kt.Decomp.Bags, kt.Decomp.Parent)})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := baseline.BellmanFord(kt.G, 5, nil)
	got := mustSSSP(t, ix, 5)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("v=%d: %v vs %v", v, got[v], want[v])
		}
	}
}

func TestNegativeCycleError(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, -5)
	g.AddEdge(2, 1, 1)
	if _, err := Build(g, nil); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("want ErrNegativeCycle, got %v", err)
	}
}

func TestPathAndTree(t *testing.T) {
	gg, grid := gridGraph(t, 7, 7, 4)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	path, w, ok := mustPath(t, ix, 0, 48)
	if !ok {
		t.Fatal("no path found")
	}
	if path[0] != 0 || path[len(path)-1] != 48 {
		t.Fatalf("path endpoints %v", path)
	}
	ref := refGraph(gg)
	sum := 0.0
	for i := 0; i+1 < len(path); i++ {
		ew, ok := ref.HasEdge(path[i], path[i+1])
		if !ok {
			t.Fatalf("edge (%d,%d) not in graph", path[i], path[i+1])
		}
		sum += ew
	}
	if math.Abs(sum-w) > 1e-9*(1+w) {
		t.Fatalf("path weight %v, reported %v", sum, w)
	}
	if d := mustDist(t, ix, 0, 48); math.Abs(d-w) > 1e-9 {
		t.Fatalf("Dist=%v Path weight=%v", d, w)
	}
}

func TestReachable(t *testing.T) {
	// One-directional chain: reachability is asymmetric.
	g := NewGraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 1)
	}
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ix.Reachable(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, true, true}
	for v := range want {
		if r[v] != want[v] {
			t.Fatalf("Reachable(2)[%d]=%v", v, r[v])
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	gg, grid := gridGraph(t, 12, 12, 5)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.PrepWork <= 0 || st.Shortcuts <= 0 || st.TreeHeight <= 0 ||
		st.DiameterBound <= 0 || st.QueryPhases <= 0 || st.QueryWork <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.DiameterBound != 4*st.TreeHeight+2*7+1 && st.DiameterBound > 4*st.TreeHeight+2*8+1 {
		t.Fatalf("diameter bound inconsistent: %+v", st)
	}
}

func TestOptionValidation(t *testing.T) {
	gg, _ := gridGraph(t, 4, 4, 6)
	if _, err := Build(gg, &Options{Decomposition: GeometricDecomposition([][]float64{{0, 0}}, 0)}); err == nil {
		t.Fatal("missing radius not rejected")
	}
	if _, err := Build(gg, &Options{Decomposition: TreeDecomposition([][]int{{0}}, nil)}); err == nil {
		t.Fatal("bag arity not rejected")
	}
}

func TestSourcesBatch(t *testing.T) {
	gg, grid := gridGraph(t, 8, 8, 7)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []int{0, 9, 33}
	rows, err := ix.SourcesBatchedContext(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		single := mustSSSP(t, ix, src)
		for v := range single {
			if rows[i][v] != single[v] {
				t.Fatalf("Sources disagrees with SSSP at src=%d v=%d", src, v)
			}
		}
	}
}
