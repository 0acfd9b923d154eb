package sepsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sepsp/internal/graph/gen"
)

// Edge-case behavior of the public API on degenerate inputs.

func TestSingleVertexGraph(t *testing.T) {
	ix, err := Build(NewGraph(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := mustSSSP(t, ix, 0)
	if len(d) != 1 || d[0] != 0 {
		t.Fatalf("d=%v", d)
	}
	path, w, ok := mustPath(t, ix, 0, 0)
	if !ok || w != 0 || len(path) != 1 {
		t.Fatalf("path=%v w=%v ok=%v", path, w, ok)
	}
}

func TestEmptyEdgeSet(t *testing.T) {
	ix, err := Build(NewGraph(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := mustSSSP(t, ix, 2)
	for v, x := range d {
		if v == 2 && x != 0 {
			t.Fatalf("self distance %v", x)
		}
		if v != 2 && !math.IsInf(x, 1) {
			t.Fatalf("unexpected reachability to %d", v)
		}
	}
}

func TestPositiveSelfLoopIgnored(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 0, 5) // harmless
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	ix, err := Build(g, &Options{LeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := mustSSSP(t, ix, 0)
	if d[0] != 0 || d[2] != 2 {
		t.Fatalf("d=%v", d)
	}
}

func TestNegativeSelfLoopIsNegativeCycle(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 0, -1)
	g.AddEdge(0, 1, 1)
	if _, err := Build(g, nil); err == nil {
		t.Fatal("negative self-loop accepted")
	}
}

func TestZeroWeightCyclesExact(t *testing.T) {
	// A zero-weight 3-cycle plus exits: distances are well-defined and the
	// engine must not loop or drift.
	g := NewGraph(5)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	g.AddEdge(1, 3, 2)
	g.AddEdge(2, 4, 3)
	ix, err := Build(g, &Options{LeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := mustSSSP(t, ix, 0)
	want := []float64{0, 0, 0, 2, 3}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("d=%v want %v", d, want)
		}
	}
	// Shortest-path tree still extractable despite zero-weight ties.
	_, parent, err := ix.SSSPTreeContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if parent[v] == -1 {
			t.Fatalf("vertex %d missing from tree", v)
		}
	}
	// The parent structure must be acyclic (reach the root).
	for v := 0; v < 5; v++ {
		u, steps := v, 0
		for u != 0 {
			u = parent[u]
			if steps++; steps > 5 {
				t.Fatalf("parent cycle at %d", v)
			}
		}
	}
}

// TestNegativeZeroWeightsCanonical: a graph whose zero weights are −0
// builds the same index as the graph with +0 there — E+ bit for bit, and
// every SSSP and wave row — because graph input stores −0 as +0.
func TestNegativeZeroWeightsCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	grid := gen.NewGrid([]int{7, 6}, gen.UnitWeights(), rand.New(rand.NewSource(3)))
	build := func(zero float64) *Index {
		t.Helper()
		g := NewGraph(grid.G.N())
		rng := rand.New(rand.NewSource(4))
		grid.G.Edges(func(from, to int, _ float64) bool {
			w := []float64{zero, zero, 1, 2}[rng.Intn(4)]
			g.AddEdge(from, to, w)
			return true
		})
		ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord), LeafSize: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	pos, neg := build(0), build(negZero)
	pe, ne := pos.eng.Augmentation().Edges, neg.eng.Augmentation().Edges
	if len(pe) != len(ne) {
		t.Fatalf("E+ has %d edges with +0 weights, %d with -0", len(pe), len(ne))
	}
	for i := range pe {
		if pe[i].From != ne[i].From || pe[i].To != ne[i].To || math.Float64bits(pe[i].W) != math.Float64bits(ne[i].W) {
			t.Fatalf("E+ edge %d: %+v with +0 weights, %+v with -0", i, pe[i], ne[i])
		}
	}
	srcs := make([]int, grid.G.N())
	for v := range srcs {
		srcs[v] = v
	}
	pw, err := pos.SourcesBatchedContext(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := neg.SourcesBatchedContext(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		ps, ns := mustSSSP(t, pos, src), mustSSSP(t, neg, src)
		for v := range ps {
			if b := math.Float64bits(ps[v]); b != math.Float64bits(ns[v]) || b != math.Float64bits(pw[src][v]) || b != math.Float64bits(nw[src][v]) {
				t.Fatalf("src=%d v=%d: SSSP %v / %v, wave %v / %v (+0 / -0 weights)", src, v, ps[v], ns[v], pw[src][v], nw[src][v])
			}
		}
	}
}

func TestParallelEdgesKeepMinimum(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 9)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 1, 7)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := mustSSSP(t, ix, 0)[1]; d != 3 {
		t.Fatalf("d=%v", d)
	}
}

func TestOraclePublicAPI(t *testing.T) {
	gg, grid := gridGraph(t, 8, 7, 31)
	ix, err := Build(gg, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	o, err := ix.BuildOracle()
	if err != nil {
		t.Fatal(err)
	}
	if o.LabelEntries() <= 0 {
		t.Fatal("empty labels")
	}
	pairs := [][2]int{{0, 55}, {10, 3}, {42, 42}}
	got, err := o.Pairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want := mustSSSP(t, ix, p[0])[p[1]]
		if math.Abs(got[i]-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("pair %v: oracle %v engine %v", p, got[i], want)
		}
		if d, err := o.Dist(p[0], p[1]); err != nil || d != got[i] {
			t.Fatal("Dist and Pairs disagree")
		}
	}
}

// TestOraclePairsMatchesDistParallel: at four workers, Pairs answers the
// batch on the index's executor, and every answer must equal the per-pair
// Dist bit for bit. Under -race this also checks that the batch's workers
// share nothing but read-only labels.
func TestOraclePairsMatchesDistParallel(t *testing.T) {
	gg, grid := gridGraph(t, 12, 11, 7)
	ix, err := Build(gg, &Options{Workers: 4, Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	o, err := ix.BuildOracle()
	if err != nil {
		t.Fatal(err)
	}
	n := gg.N()
	var pairs [][2]int
	for u := 0; u < n; u += 5 {
		for v := 0; v < n; v += 7 {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	got, err := o.Pairs(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := o.Dist(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("pair %v: Pairs %v, Dist %v", p, got[i], want)
		}
	}
}

// TestIndexRejectsOutOfRangeVertices: every vertex-taking query on an Index
// or its Oracle fails an out-of-range vertex with an error wrapping
// ErrBadOptions that names its role, before any work runs, under both
// fallback policies and with or without a built pair oracle (which answers
// DistContext's point reads). A bad vertex is a caller error, not an engine
// fault: it must neither panic, nor surface as a *PanicError, nor count a
// fallback engagement.
func TestIndexRejectsOutOfRangeVertices(t *testing.T) {
	g := NewGraph(4)
	for v := 0; v < 3; v++ {
		g.AddEdge(v, v+1, 1)
	}
	ctx := context.Background()
	type query struct {
		name, role string
		call       func() error
	}
	for _, fb := range []FallbackPolicy{FallbackOff, FallbackBaseline} {
		for _, withOracle := range []bool{false, true} {
			obsv := NewTelemetry(nil)
			ix, err := Build(g, &Options{Fallback: fb, Telemetry: obsv})
			if err != nil {
				t.Fatal(err)
			}
			queries := []query{
				{"SSSPContext(7)", "source", func() error { _, err := ix.SSSPContext(ctx, 7); return err }},
				{"SSSPContext(-1)", "source", func() error { _, err := ix.SSSPContext(ctx, -1); return err }},
				{"SourcesBatchedContext([0 9])", "source", func() error {
					_, err := ix.SourcesBatchedContext(ctx, []int{0, 9})
					return err
				}},
				{"SourcesBatchedContext([-2 0])", "source", func() error {
					_, err := ix.SourcesBatchedContext(ctx, []int{-2, 0})
					return err
				}},
				{"DistToContext(4)", "destination", func() error { _, err := ix.DistToContext(ctx, 4); return err }},
				{"Reachable(-1)", "source", func() error { _, err := ix.Reachable(-1); return err }},
				{"Reachable(4)", "source", func() error { _, err := ix.Reachable(4); return err }},
				{"Verify(9)", "source", func() error { return ix.Verify(9, []float64{0, 1, 2, 3}) }},
				{"Verify(-1)", "source", func() error { return ix.Verify(-1, []float64{0, 1, 2, 3}) }},
				{"DistContext(0,9)", "destination", func() error { _, err := ix.DistContext(ctx, 0, 9); return err }},
				{"DistContext(9,0)", "source", func() error { _, err := ix.DistContext(ctx, 9, 0); return err }},
				{"DistContext(9,9)", "source", func() error { _, err := ix.DistContext(ctx, 9, 9); return err }},
				{"DistContext(-1,-1)", "source", func() error { _, err := ix.DistContext(ctx, -1, -1); return err }},
				{"SSSPTreeContext(7)", "source", func() error { _, _, err := ix.SSSPTreeContext(ctx, 7); return err }},
				{"SSSPTreeContext(-1)", "source", func() error { _, _, err := ix.SSSPTreeContext(ctx, -1); return err }},
				{"PathContext(0,9)", "destination", func() error { _, _, _, err := ix.PathContext(ctx, 0, 9); return err }},
				{"PathContext(9,0)", "source", func() error { _, _, _, err := ix.PathContext(ctx, 9, 0); return err }},
				{"PathContext(9,9)", "source", func() error { _, _, _, err := ix.PathContext(ctx, 9, 9); return err }},
				{"PathContext(-1,-1)", "source", func() error { _, _, _, err := ix.PathContext(ctx, -1, -1); return err }},
			}
			if withOracle {
				o, err := ix.BuildOracle()
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries,
					query{"Oracle.Dist(0,9)", "destination", func() error { _, err := o.Dist(0, 9); return err }},
					query{"Oracle.Dist(9,9)", "source", func() error { _, err := o.Dist(9, 9); return err }},
					query{"Oracle.Dist(-1,-1)", "source", func() error { _, err := o.Dist(-1, -1); return err }},
					query{"Oracle.Pairs([[0 1] [0 9]])", "destination", func() error {
						_, err := o.Pairs([][2]int{{0, 1}, {0, 9}})
						return err
					}},
					query{"Oracle.Pairs([[-1 -1]])", "source", func() error {
						_, err := o.Pairs([][2]int{{-1, -1}})
						return err
					}},
				)
			}
			for _, q := range queries {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panicked: %v", r)
						}
					}()
					return q.call()
				}()
				if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), q.role+" vertex") {
					t.Errorf("fallback=%d oracle=%v %s: err = %v, want ErrBadOptions naming the %s",
						fb, withOracle, q.name, err, q.role)
				}
			}
			if n := obsv.reg.CounterValue("sepsp_fallback_engaged_total"); n != 0 {
				t.Errorf("fallback=%d oracle=%v: %d fallback engagements from bad vertices", fb, withOracle, n)
			}
			if d := mustDist(t, ix, 0, 3); d != 3 {
				t.Errorf("fallback=%d oracle=%v: dist(0,3) = %v after rejections, want 3", fb, withOracle, d)
			}
		}
	}
}
