package augment

import (
	"testing"

	"sepsp/internal/graph/gen"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
)

// TestAlg41LevelAttributionSumsToTotals checks the central no-double-
// no-under-counting invariant of the per-level counts: the levels' work and
// rounds sum exactly to the aggregate pram.Stats totals, those totals are
// identical with and without a tracing sink, and both runs return the same
// levels.
func TestAlg41LevelAttributionSumsToTotals(t *testing.T) {
	g, tree := gridAndTree(t, []int{9, 9}, gen.UniformWeights(0.5, 4), 3, 4)

	plain := &pram.Stats{}
	pres, err := Alg41(g, tree, Config{Stats: plain, UseFloydWarshall: true})
	if err != nil {
		t.Fatal(err)
	}

	sink := &obs.Sink{Trace: obs.NewTracer()}
	st := &pram.Stats{}
	res, err := Alg41(g, tree, Config{Stats: st, UseFloydWarshall: true, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}

	if st.Work() != plain.Work() || st.Rounds() != plain.Rounds() {
		t.Fatalf("traced totals (%d,%d) differ from plain (%d,%d)",
			st.Work(), st.Rounds(), plain.Work(), plain.Rounds())
	}
	if res.Iters != nil {
		t.Fatal("Alg41 returned Algorithm 4.3 iterations")
	}
	// Every level 0..Height has a row and a span.
	if len(res.Levels) != tree.Height+1 {
		t.Fatalf("got %d levels, want %d", len(res.Levels), tree.Height+1)
	}
	var work, rounds, contrib int64
	for L, lv := range res.Levels {
		if lv != pres.Levels[L] {
			t.Fatalf("level %d: traced %+v, plain %+v", L, lv, pres.Levels[L])
		}
		if lv.Work == 0 {
			t.Fatalf("level %d counted no work", L)
		}
		work += lv.Work
		rounds += lv.Rounds
		contrib += lv.Contributions
	}
	if work != st.Work() || rounds != st.Rounds() {
		t.Fatalf("levels sum to work %d, rounds %d; Stats totals %d, %d", work, rounds, st.Work(), st.Rounds())
	}
	if sink.Trace.Len() != tree.Height+1 {
		t.Fatalf("got %d prep.level spans, want %d", sink.Trace.Len(), tree.Height+1)
	}
	// E+ contributions: the levels count every pre-dedup pair, so they
	// sum to exactly the raw count.
	if contrib != res.RawCount {
		t.Fatalf("per-level E+ contributions %d, RawCount %d", contrib, res.RawCount)
	}
}

// TestAlg43IterAttributionSumsToTotals: same invariant for the simultaneous
// algorithm, whose attribution unit is the path-doubling iteration.
func TestAlg43IterAttributionSumsToTotals(t *testing.T) {
	g, tree := gridAndTree(t, []int{8, 8}, gen.UniformWeights(0.5, 4), 7, 4)

	plain := &pram.Stats{}
	if _, err := Alg43(g, tree, Config{Stats: plain}); err != nil {
		t.Fatal(err)
	}

	sink := &obs.Sink{Trace: obs.NewTracer()}
	st := &pram.Stats{}
	res, err := Alg43(g, tree, Config{Stats: st, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	if st.Work() != plain.Work() || st.Rounds() != plain.Rounds() {
		t.Fatalf("traced totals (%d,%d) differ from plain (%d,%d)",
			st.Work(), st.Rounds(), plain.Work(), plain.Rounds())
	}
	if res.Levels != nil {
		t.Fatal("Alg43 returned Algorithm 4.1 levels")
	}
	// The initialisation plus at least one doubling iteration.
	if len(res.Iters) < 2 {
		t.Fatalf("got %d stages, want the initialisation and at least one iteration", len(res.Iters))
	}
	var work, rounds int64
	for _, it := range res.Iters {
		work += it.Work
		rounds += it.Rounds
	}
	if work != st.Work() {
		t.Fatalf("init+iter work sums to %d, Stats total is %d", work, st.Work())
	}
	if rounds != st.Rounds() {
		t.Fatalf("init+iter rounds sum to %d, Stats total is %d", rounds, st.Rounds())
	}
	if sink.Trace.Len() != len(res.Iters) {
		t.Fatalf("got %d spans, want one per stage (%d)", sink.Trace.Len(), len(res.Iters))
	}
}

// TestAlg41ObsResultUnchanged: instrumentation must not perturb E+ itself.
func TestAlg41ObsResultUnchanged(t *testing.T) {
	g, tree := gridAndTree(t, []int{6, 7}, gen.UniformWeights(0.5, 4), 11, 4)
	plain, err := Alg41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
	inst, err := Alg41(g, tree, Config{Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Edges) != len(inst.Edges) || plain.RawCount != inst.RawCount {
		t.Fatalf("instrumented E+ differs: %d/%d edges, %d/%d raw",
			len(inst.Edges), len(plain.Edges), inst.RawCount, plain.RawCount)
	}
}
