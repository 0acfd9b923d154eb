package sepsp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sepsp/internal/baseline"
	"sepsp/internal/graph"
)

func TestDistTo(t *testing.T) {
	gg, grid := gridGraph(t, 7, 6, 21)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	ref := refGraph(gg)
	dst := 17
	got, err := ix.DistToContext(context.Background(), dst)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: Bellman-Ford on the reversed graph.
	want, err := baseline.BellmanFord(ref.Reverse(), dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		if math.Abs(got[u]-want[u]) > 1e-9*(1+math.Abs(want[u])) {
			t.Fatalf("DistTo(%d)[%d]=%v want %v", dst, u, got[u], want[u])
		}
	}
	// Consistency with forward queries: dist(u→dst) via SSSP(u).
	for _, u := range []int{0, 11, 40} {
		fwd := mustSSSP(t, ix, u)[dst]
		if math.Abs(got[u]-fwd) > 1e-9*(1+math.Abs(fwd)) {
			t.Fatalf("DistTo and SSSP disagree for u=%d: %v vs %v", u, got[u], fwd)
		}
	}
}

func TestWithWeightsReusesDecomposition(t *testing.T) {
	gg, grid := gridGraph(t, 8, 8, 22)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	// Same skeleton, new weights (and flipped weight asymmetry).
	rng := rand.New(rand.NewSource(99))
	g2 := NewGraph(grid.G.N())
	refGraph(gg).Edges(func(from, to int, _ float64) bool {
		g2.AddEdge(from, to, 1+9*rng.Float64())
		return true
	})
	ix2, err := ix.WithWeights(g2)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Stats().TreeHeight != ix.Stats().TreeHeight {
		t.Fatal("tree not reused")
	}
	want, _ := baseline.BellmanFord(refGraph(g2), 0, nil)
	got := mustSSSP(t, ix2, 0)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("v=%d: %v want %v", v, got[v], want[v])
		}
	}
}

// TestWithWeightsStatsMatchBuild: a reweighted index reports the Stats a
// fresh Build of the same graph reports, preprocessing work and rounds
// included, whether the reweight reused the E+ layout (new weights only)
// or laid it out afresh (some directions flipped), at either algorithm.
func TestWithWeightsStatsMatchBuild(t *testing.T) {
	gg, grid := gridGraph(t, 8, 8, 26)
	rng := rand.New(rand.NewSource(7))
	weights, flipped := NewGraph(grid.G.N()), NewGraph(grid.G.N())
	i := 0
	refGraph(gg).Edges(func(from, to int, _ float64) bool {
		w := 1 + 9*rng.Float64()
		weights.AddEdge(from, to, w)
		if i%5 == 0 {
			from, to = to, from
		}
		flipped.AddEdge(from, to, w)
		i++
		return true
	})
	for _, alg := range []Algorithm{LeavesUp, Simultaneous} {
		opt := &Options{Decomposition: GridDecomposition(grid.Coord), Algorithm: alg, Workers: 2}
		ix, err := Build(gg, opt)
		if err != nil {
			t.Fatal(err)
		}
		for name, g2 := range map[string]*Graph{"weights": weights, "directions": flipped} {
			re, err := ix.WithWeights(g2)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(g2, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, want := re.Stats(), fresh.Stats()
			got.Levels, want.Levels = nil, nil
			if got.PrepWork == 0 || got.PrepRounds == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("alg %v, %s: reweighted Stats %+v, fresh Build %+v", alg, name, got, want)
			}
			if shared := re.eng.Augmentation().SharesLayout(ix.eng.Augmentation()); shared != (name == "weights") {
				t.Fatalf("alg %v, %s: E+ layout reused = %v", alg, name, shared)
			}
		}
	}
}

// TestBuildIsDeterministic: E+ arrives in canonical (From, To) order, so
// two builds of one graph produce identical shortcut slices and identical
// query-schedule buckets, at either algorithm and with parallel workers.
func TestBuildIsDeterministic(t *testing.T) {
	gg, grid := gridGraph(t, 12, 12, 25)
	for _, alg := range []Algorithm{LeavesUp, Simultaneous} {
		opt := &Options{Decomposition: GridDecomposition(grid.Coord), Algorithm: alg, Workers: 2}
		var ixs [2]*Index
		for i := range ixs {
			ix, err := Build(gg, opt)
			if err != nil {
				t.Fatal(err)
			}
			ixs[i] = ix
		}
		a, b := ixs[0].eng.Augmentation().Edges, ixs[1].eng.Augmentation().Edges
		if len(a) == 0 || !sameEdges(a, b) {
			t.Fatalf("alg %v: two builds return different E+ slices (%d and %d edges)", alg, len(a), len(b))
		}
		s1, s2 := ixs[0].eng.Schedule(), ixs[1].eng.Schedule()
		for i := 0; i < s1.Phases(); i++ {
			_, b1 := s1.PhaseAt(i)
			_, b2 := s2.PhaseAt(i)
			if !slices.Equal(b1.Runs(), b2.Runs()) || !slices.Equal(b1.To(), b2.To()) ||
				!slices.EqualFunc(b1.W(), b2.W(), func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("alg %v: schedule phase %d differs between builds", alg, i)
			}
		}
	}
}

// sameEdges reports whether a and b hold the same edges in the same order,
// weights compared bit for bit.
func sameEdges(a, b []graph.Edge) bool {
	return slices.EqualFunc(a, b, func(x, y graph.Edge) bool {
		return x.From == y.From && x.To == y.To && math.Float64bits(x.W) == math.Float64bits(y.W)
	})
}

func TestWithWeightsRejectsDifferentSkeleton(t *testing.T) {
	gg, grid := gridGraph(t, 5, 5, 23)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph(25)
	g2.AddEdge(0, 24, 1) // new long-range edge changes the skeleton
	if _, err := ix.WithWeights(g2); err == nil {
		t.Fatal("different skeleton accepted")
	}
}

func TestWithWeightsDetectsNewNegativeCycle(t *testing.T) {
	gg, grid := gridGraph(t, 5, 5, 24)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph(25)
	refGraph(gg).Edges(func(from, to int, _ float64) bool {
		g2.AddEdge(from, to, -1) // every 2-cycle of the grid is now negative
		return true
	})
	if _, err := ix.WithWeights(g2); err == nil {
		t.Fatal("negative cycle in rebound weights not detected")
	}
}

func TestSolveConstraintsPublic(t *testing.T) {
	sol, err := SolveConstraints(3, []Constraint{
		{I: 1, J: 0, C: -2}, // x1 − x0 ≤ −2, i.e. x0 ≥ x1 + 2
		{I: 2, J: 1, C: -3}, // x2 − x1 ≤ −3
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(sol[1]-sol[0] <= -2+1e-9 && sol[2]-sol[1] <= -3+1e-9) {
		t.Fatalf("solution %v violates constraints", sol)
	}
	if _, err := SolveConstraints(2, []Constraint{
		{I: 0, J: 1, C: -1},
		{I: 1, J: 0, C: -1},
	}, nil); err == nil {
		t.Fatal("infeasible accepted")
	}
}

func TestBuildWorksOnDisconnectedGraph(t *testing.T) {
	g := NewGraph(10)
	g.AddBoth(0, 1, 1)
	g.AddBoth(2, 3, 1)
	g.AddEdge(5, 6, 2)
	ix, err := Build(g, &Options{LeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := mustSSSP(t, ix, 0)
	if d[1] != 1 || !math.IsInf(d[2], 1) || !math.IsInf(d[9], 1) {
		t.Fatalf("distances wrong: %v", d)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := NewGraph(4)
	if g.N() != 4 {
		t.Fatalf("N=%d", g.N())
	}
	g.AddBoth(0, 1, 2)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := mustDist(t, ix, 1, 0); d != 2 {
		t.Fatalf("Dist=%v", d)
	}
	if _, _, ok := mustPath(t, ix, 0, 3); ok {
		t.Fatal("path to isolated vertex should not exist")
	}
}
