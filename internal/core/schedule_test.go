package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/matrix"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// TestScheduleBucketInvariants: every edge of E ∪ E+ whose endpoints both
// have defined levels lands in exactly one bucket, the bucket matches its
// level relation, and the phase count follows the 2ℓ + 4(d_G+1) formula.
func TestScheduleBucketInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grid := gen.NewGrid([]int{11, 9}, gen.UniformWeights(1, 2), rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(grid.G, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Schedule()
	if s.Phases() != 2*s.l+4*(s.height+1) {
		t.Fatalf("phases=%d, want %d", s.Phases(), 2*s.l+4*(s.height+1))
	}
	all := append(grid.G.EdgeList(), eng.Augmentation().Edges...)
	definedCount := 0
	for _, e := range all {
		lu, lv := tree.Level(e.From), tree.Level(e.To)
		if lu != separator.LevelUndef && lv != separator.LevelUndef {
			definedCount++
		}
	}
	h := s.height + 1
	bucketed := 0
	for id := range s.lvl {
		b := &s.lvl[id]
		for _, e := range arenaEdges(b) {
			lu, lv := tree.Level(e.From), tree.Level(e.To)
			var ok bool
			switch L := id % h; id / h {
			case 0:
				ok = lu == L && lv == L
			case 1:
				ok = lu == L && lv < L
			default:
				ok = lv == L && lu < L
			}
			if !ok || LevelBucket(tree, e.From, e.To) != id {
				t.Fatalf("bucket %d holds edge with levels %d,%d", id, lu, lv)
			}
		}
		bucketed += b.Edges()
	}
	if bucketed != definedCount {
		t.Fatalf("bucketed %d edges, expected %d", bucketed, definedCount)
	}
	// Work formula cross-check: ℓ sweeps of E twice, same[L] twice, every
	// other level bucket once.
	want := int64(2*s.l) * int64(s.eAll.Edges())
	for id := range s.lvl {
		want += int64(s.lvl[id].Edges())
		if id < h {
			want += int64(s.lvl[id].Edges())
		}
	}
	if s.WorkPerSource() != want {
		t.Fatalf("WorkPerSource=%d want %d", s.WorkPerSource(), want)
	}
}

// arenaEdges expands bucket b run by run into its edge sequence.
func arenaEdges(b *Bucket) []graph.Edge {
	out := make([]graph.Edge, 0, b.Edges())
	lo := int32(0)
	for _, run := range b.Runs() {
		for j := lo; j < run.Hi; j++ {
			out = append(out, graph.Edge{From: int(run.H), To: int(b.To()[j]), W: b.W()[j]})
		}
		lo = run.Hi
	}
	return out
}

// TestScheduleRunOrder walks a hand-built schedule and verifies the
// bitonic ordering: ℓ all-edge phases, descending sweep (same, desc
// interleaved from high L), ascending sweep (asc, same from low L), ℓ
// all-edge phases, each phase reading the bucket its kind and level name.
func TestScheduleRunOrder(t *testing.T) {
	s := &Schedule{height: 2, l: 2, eAll: Bucket{rle: []matrix.LaneRun{{H: 0, Hi: 1}}, to: []int32{0}, w: []float64{0}},
		lvl: make([]Bucket, 9)}
	type step struct {
		kind PhaseKind
		b    *Bucket
	}
	same, desc, asc := s.lvl[0:3], s.lvl[3:6], s.lvl[6:9]
	want := []step{
		{PhaseEllPre, &s.eAll}, {PhaseEllPre, &s.eAll},
		{PhaseSameDown, &same[2]}, {PhaseDesc, &desc[2]},
		{PhaseSameDown, &same[1]}, {PhaseDesc, &desc[1]},
		{PhaseSameDown, &same[0]}, {PhaseDesc, &desc[0]},
		{PhaseAsc, &asc[0]}, {PhaseSameUp, &same[0]},
		{PhaseAsc, &asc[1]}, {PhaseSameUp, &same[1]},
		{PhaseAsc, &asc[2]}, {PhaseSameUp, &same[2]},
		{PhaseEllPost, &s.eAll}, {PhaseEllPost, &s.eAll},
	}
	if s.Phases() != len(want) {
		t.Fatalf("Phases()=%d, want %d", s.Phases(), len(want))
	}
	for i, w := range want {
		if ph, b := s.PhaseAt(i); ph.Index != i || ph.Kind != w.kind || b != w.b {
			t.Fatalf("phase %d: %+v, bucket %p; want kind %s, bucket %p", i, ph, b, w.kind, w.b)
		}
	}
}

// TestSSSPFromMultiSource checks the virtual-super-source semantics: with
// an all-zero initial vector the result is the pointwise minimum of
// per-source SSSP rows.
func TestSSSPFromMultiSource(t *testing.T) {
	eng, g := buildGridEngine(t, []int{6, 7}, gen.UniformWeights(1, 3), 9, Config{})
	zero := make([]float64, g.N())
	got := eng.SSSPFrom(zero, nil)
	for v := 0; v < g.N(); v++ {
		best := 0.0 // distance from v to itself with zero init
		for s := 0; s < g.N(); s++ {
			d := eng.SSSP(s, nil)[v]
			if d < best {
				best = d
			}
		}
		if !almostEqual(got[v], best) {
			t.Fatalf("v=%d: %v want %v", v, got[v], best)
		}
	}
}

// TestScheduleBucketsMatchReference rebuilds every phase bucket the plain
// way — append each edge of E then E+ to its level bucket, then group by
// head in first-appearance order, keeping input order within a head — and
// checks that each PhaseAt arena bucket equals that reference edge for
// edge, in order, with a well-formed run encoding, and that the arena is
// exactly sized.
func TestScheduleBucketsMatchReference(t *testing.T) {
	g, tree := referenceGraph(t)
	eng, err := NewEngine(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkBucketsMatchReference(t, eng)
	// The arena is sized by runs, not edges: the last bucket built ends
	// every run array exactly.
	s := eng.Schedule()
	last := s.lvl[len(s.lvl)-1]
	if cap(last.rle) != len(last.rle) || cap(last.to) != len(last.to) {
		t.Fatalf("arena has spare slots: rle %d/%d to %d/%d", len(last.rle), cap(last.rle), len(last.to), cap(last.to))
	}
}

// referenceGraph is a potential-shifted 10×9 grid (negative weights, no
// negative cycle) and its coordinate decomposition tree.
func referenceGraph(t *testing.T) (*graph.Digraph, *separator.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	grid := gen.NewGrid([]int{10, 9}, gen.UniformWeights(0.1, 4), rng)
	g, _ := gen.PotentialShift(grid.G, 6, rng)
	tree, err := separator.Build(graph.NewSkeleton(g), &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g, tree
}

// checkBucketsMatchReference runs TestScheduleBucketsMatchReference's
// checks on eng's schedule.
func checkBucketsMatchReference(t *testing.T, eng *Engine) {
	t.Helper()
	g, tree, s := eng.Graph(), eng.Tree(), eng.Schedule()
	h := tree.Height + 1
	same, desc, asc := make([][]graph.Edge, h), make([][]graph.Edge, h), make([][]graph.Edge, h)
	for _, e := range append(g.EdgeList(), eng.Augmentation().Edges...) {
		lu, lv := tree.Level(e.From), tree.Level(e.To)
		switch {
		case lu == separator.LevelUndef || lv == separator.LevelUndef:
		case lu == lv:
			same[lu] = append(same[lu], e)
		case lu > lv:
			desc[lu] = append(desc[lu], e)
		default:
			asc[lv] = append(asc[lv], e)
		}
	}
	grouped := func(edges []graph.Edge) []graph.Edge {
		var heads []int
		byHead := map[int][]graph.Edge{}
		for _, e := range edges {
			if _, ok := byHead[e.From]; !ok {
				heads = append(heads, e.From)
			}
			byHead[e.From] = append(byHead[e.From], e)
		}
		var out []graph.Edge
		for _, u := range heads {
			out = append(out, byHead[u]...)
		}
		return out
	}
	for i := 0; i < s.Phases(); i++ {
		ph, b := s.PhaseAt(i)
		var want []graph.Edge
		switch ph.Kind {
		case PhaseEllPre, PhaseEllPost:
			want = grouped(g.EdgeList())
		case PhaseSameDown, PhaseSameUp:
			want = grouped(same[ph.Level])
		case PhaseDesc:
			want = grouped(desc[ph.Level])
		case PhaseAsc:
			want = grouped(asc[ph.Level])
		}
		if b.Edges() != len(want) {
			t.Fatalf("phase %d (%s L=%d): arena %d edges, reference %d", i, ph.Kind, ph.Level, b.Edges(), len(want))
		}
		// The run encoding: distinct heads and non-empty runs whose ends
		// rise to the bucket's edge count.
		seen := map[int32]bool{}
		lo := int32(0)
		for r, run := range b.rle {
			if seen[run.H] {
				t.Fatalf("phase %d: head %d appears in two runs", i, run.H)
			}
			seen[run.H] = true
			if run.Hi <= lo {
				t.Fatalf("phase %d run %d: end %d not past start %d", i, r, run.Hi, lo)
			}
			lo = run.Hi
		}
		if int(lo) != len(b.to) {
			t.Fatalf("phase %d: runs end at %d, bucket has %d edges", i, lo, len(b.to))
		}
		for j, e := range arenaEdges(b) {
			if e != want[j] {
				t.Fatalf("phase %d (%s L=%d) edge %d: arena %+v, reference %+v", i, ph.Kind, ph.Level, j, e, want[j])
			}
		}
	}
}

// TestReweightSharesPlan: an engine built with Prev over the same directed
// edges and new weights shares Prev's E+ layout and every structural
// array of its schedule arena, gets its own weights, and equals a fresh
// engine (E+ bit for bit, every PhaseAt bucket against the reference, SSSP
// rows); after a direction flip, or a pair flipping from finite to +Inf
// or back, nothing is shared.
func TestReweightSharesPlan(t *testing.T) {
	g1, tree := referenceGraph(t)
	rng := rand.New(rand.NewSource(9))
	edges := g1.EdgeList()
	reweighted := make([]graph.Edge, len(edges))
	for i, e := range edges {
		reweighted[i] = graph.Edge{From: e.From, To: e.To, W: e.W + rng.Float64()}
	}
	// Every out-edge of a vertex with shortcuts leaving it at +Inf: its E+
	// pairs become unreachable.
	base, err := NewEngine(g1, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cut := base.Augmentation().Edges[0].From
	infCut := slices.Clone(reweighted)
	for i, e := range infCut {
		if e.From == cut {
			infCut[i].W = math.Inf(1)
		}
	}
	flipped := slices.Clone(reweighted)
	flipped[0].From, flipped[0].To = flipped[0].To, flipped[0].From
	for _, tc := range []struct {
		name          string
		before, after []graph.Edge
		share         bool
	}{
		{"weights", edges, reweighted, true},
		{"to +Inf", edges, infCut, false},
		{"from +Inf", infCut, reweighted, false},
		{"direction", edges, flipped, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.FromEdges(g1.N(), tc.after)
			for _, alg := range []Algorithm{Alg41, Alg43} {
				old, err := NewEngine(graph.FromEdges(g1.N(), tc.before), tree, Config{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				re, err := NewEngine(g, tree, Config{Algorithm: alg, Prev: old, Ex: pram.NewExecutor(2)})
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewEngine(g, tree, Config{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				if got := re.Augmentation().SharesLayout(old.Augmentation()); got != tc.share {
					t.Fatalf("alg %d: E+ shares the old layout = %v, want %v", alg, got, tc.share)
				}
				a, b := old.Schedule().arena(), re.Schedule().arena()
				for k := range a {
					if len(a[k].to) == 0 {
						continue
					}
					sameTo, sameRLE := &a[k].to[0] == &b[k].to[0], &a[k].rle[0] == &b[k].rle[0]
					if sameTo != tc.share || sameRLE != tc.share {
						t.Fatalf("alg %d bucket %d: shares to %v, rle %v; want %v", alg, k, sameTo, sameRLE, tc.share)
					}
					if &a[k].w[0] == &b[k].w[0] {
						t.Fatalf("alg %d bucket %d: weight arena shared", alg, k)
					}
				}
				ra, fa := re.Augmentation(), fresh.Augmentation()
				if ra.RawCount != fa.RawCount || len(ra.Edges) != len(fa.Edges) {
					t.Fatalf("alg %d: reweighted E+ has %d edges of %d contributions, fresh %d of %d", alg, len(ra.Edges), ra.RawCount, len(fa.Edges), fa.RawCount)
				}
				for i, e := range ra.Edges {
					if f := fa.Edges[i]; e.From != f.From || e.To != f.To || math.Float64bits(e.W) != math.Float64bits(f.W) {
						t.Fatalf("alg %d: reweighted E+ edge %d is %+v, fresh %+v", alg, i, e, f)
					}
				}
				checkBucketsMatchReference(t, re)
				for _, src := range []int{0, g.N() / 2, g.N() - 1} {
					got, want := re.SSSP(src, nil), fresh.SSSP(src, nil)
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("alg %d src %d v %d: reweighted %v, fresh %v", alg, src, v, got[v], want[v])
						}
					}
				}
			}
		})
	}
}
