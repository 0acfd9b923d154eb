package sepsp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sepsp/internal/baseline"
	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/reach"
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

// TestReachableInfWeightIsAbsent: a +Inf-weight edge is absent, so v is
// reachable exactly when SSSPContext gives it a finite distance and
// PathContext finds a path. Checked on a path whose first edge weighs +Inf
// and on a grid whose one cut edge weighs +Inf, each served by the
// separator engine, by the degraded fallback, and by a reweighted epoch
// that turns that edge from finite to +Inf and back.
func TestReachableInfWeightIsAbsent(t *testing.T) {
	inf := math.Inf(1)
	grid := gen.NewGrid([]int{8, 4}, gen.UnitWeights(), rand.New(rand.NewSource(1)))
	cases := []struct {
		name     string
		src, far int // far is reachable from src only over the edge
		build    func(w float64) (*Graph, *Options)
	}{
		{"path", 0, 39, func(w float64) (*Graph, *Options) {
			g := NewGraph(40)
			g.AddEdge(0, 1, w)
			for i := 1; i+1 < 40; i++ {
				g.AddEdge(i, i+1, 1)
			}
			return g, nil
		}},
		// Columns 0–3 and 4–7 joined by the one edge (3,0) → (4,0).
		{"grid", grid.Index([]int{0, 0}), grid.Index([]int{7, 0}), func(w float64) (*Graph, *Options) {
			g := NewGraph(grid.G.N())
			grid.G.Edges(func(from, to int, wt float64) bool {
				a, b := grid.Coord[from], grid.Coord[to]
				switch {
				case a[0] == 3 && b[0] == 4 && a[1] == 0:
					g.AddEdge(from, to, w)
				case (a[0] < 4) == (b[0] < 4):
					g.AddEdge(from, to, wt)
				}
				return true
			})
			return g, &Options{Decomposition: GridDecomposition(grid.Coord)}
		}},
	}
	check := func(t *testing.T, ix *Index, src, far int, farReachable bool) {
		t.Helper()
		n := ix.g.N()
		for s := 0; s < n; s++ {
			set, err := ix.Reachable(s)
			if err != nil {
				t.Fatalf("Reachable(%d): %v", s, err)
			}
			dist := mustSSSP(t, ix, s)
			for v := 0; v < n; v++ {
				_, _, ok := mustPath(t, ix, s, v)
				if set[v] != !math.IsInf(dist[v], 1) || set[v] != ok {
					t.Fatalf("Reachable(%d)[%d] = %v, SSSPContext %v, PathContext ok %v", s, v, set[v], dist[v], ok)
				}
			}
			if s == src && set[far] != farReachable {
				t.Fatalf("Reachable(%d)[%d] = %v, want %v", src, far, set[far], farReachable)
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name+"/primary", func(t *testing.T) {
			g, opt := c.build(inf)
			ix, err := Build(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			check(t, ix, c.src, c.far, false)
		})
		t.Run(c.name+"/degraded", func(t *testing.T) {
			g, opt := c.build(inf)
			if opt == nil {
				opt = &Options{}
			}
			opt.Fallback = FallbackBaseline
			opt.Inject = faultinject.NewSeeded(faultinject.Config{
				Seed:  1,
				Sites: map[string]faultinject.SiteConfig{faultinject.SitePramWorker: {PanicPerMille: 1000}},
			})
			ix, err := Build(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !ix.Degraded() {
				t.Fatal("index not degraded")
			}
			check(t, ix, c.src, c.far, false)
		})
		t.Run(c.name+"/reweighted", func(t *testing.T) {
			g, opt := c.build(1)
			ix, err := Build(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			check(t, ix, c.src, c.far, true)
			gInf, _ := c.build(inf)
			if ix, err = ix.WithWeights(gInf); err != nil {
				t.Fatal(err)
			}
			check(t, ix, c.src, c.far, false)
			if ix, err = ix.WithWeights(g); err != nil {
				t.Fatal(err)
			}
			check(t, ix, c.src, c.far, true)
		})
	}
}

// TestReachableMatchesBooleanEngine: on finite-weight random digraphs with
// unreachable pairs, Reachable (the finiteness of one distance query)
// equals the paper's boolean construction, reach.Engine.From, over the
// same decomposition tree.
func TestReachableMatchesBooleanEngine(t *testing.T) {
	unreachable := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(120)
		ref := gen.RandomDigraph(n, rng.Intn(3*n), gen.UniformWeights(0, 5), rng)
		if seed%2 == 1 {
			ref, _ = gen.PotentialShift(ref, 6, rng)
		}
		ix, err := Build(toPublic(ref), nil)
		if err != nil {
			t.Fatalf("seed=%d: Build: %v", seed, err)
		}
		eng, err := reach.NewEngine(ix.eng.Graph(), ix.eng.Tree(), nil, nil)
		if err != nil {
			t.Fatalf("seed=%d: reach.NewEngine: %v", seed, err)
		}
		for src := 0; src < n; src++ {
			got, err := ix.Reachable(src)
			if err != nil {
				t.Fatalf("seed=%d: Reachable(%d): %v", seed, src, err)
			}
			want := eng.From(src, nil)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("seed=%d: Reachable(%d)[%d] = %v, boolean engine %v", seed, src, v, got[v], want[v])
				}
				if !want[v] {
					unreachable++
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no instance has an unreachable pair")
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
