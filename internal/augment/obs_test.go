package augment

import (
	"strings"
	"testing"

	"sepsp/internal/graph/gen"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
)

// TestAlg41LevelAttributionSumsToTotals checks the central no-double-
// no-under-counting invariant of the instrumentation: the per-level work and
// round counters sum exactly to the aggregate pram.Stats totals, and those
// totals are identical to an uninstrumented run.
func TestAlg41LevelAttributionSumsToTotals(t *testing.T) {
	g, tree := gridAndTree(t, []int{9, 9}, gen.UniformWeights(0.5, 4), 3, 4)

	plain := &pram.Stats{}
	if _, err := Alg41(g, tree, Config{Stats: plain, UseFloydWarshall: true}); err != nil {
		t.Fatal(err)
	}

	sink := &obs.Sink{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
	st := &pram.Stats{}
	res, err := Alg41(g, tree, Config{Stats: st, UseFloydWarshall: true, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}

	if st.Work() != plain.Work() || st.Rounds() != plain.Rounds() {
		t.Fatalf("instrumented totals (%d,%d) differ from plain (%d,%d)",
			st.Work(), st.Rounds(), plain.Work(), plain.Rounds())
	}
	snap := sink.Metrics.Snapshot()
	if got := snap.SumCounters(obs.MPrepWork + ".level."); got != st.Work() {
		t.Fatalf("per-level work sums to %d, Stats total is %d", got, st.Work())
	}
	if got := snap.SumCounters(obs.MPrepRounds + ".level."); got != st.Rounds() {
		t.Fatalf("per-level rounds sum to %d, Stats total is %d", got, st.Rounds())
	}
	// Every level 0..Height contributes a work counter and a span.
	for L := 0; L <= tree.Height; L++ {
		if _, ok := snap.Counters[obs.LevelKey(obs.MPrepWork, L)]; !ok {
			t.Fatalf("no work counter for level %d", L)
		}
	}
	if sink.Trace.Len() != tree.Height+1 {
		t.Fatalf("got %d prep.level spans, want %d", sink.Trace.Len(), tree.Height+1)
	}
	// E+ contributions: per-level counters count every pre-dedup pair, so
	// they sum to exactly the raw count.
	contrib := snap.SumCounters(obs.MPrepShortcuts + ".level.")
	if contrib != res.RawCount {
		t.Fatalf("per-level E+ contributions %d, RawCount %d", contrib, res.RawCount)
	}
	h := snap.Histograms["prep.eplus.per_node"]
	if h.Count != int64(len(tree.Nodes)) || int64(h.Sum) != contrib {
		t.Fatalf("per-node histogram count=%d sum=%v, want count=%d sum=%d",
			h.Count, h.Sum, len(tree.Nodes), contrib)
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

	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	st := &pram.Stats{}
	if _, err := Alg43(g, tree, Config{Stats: st, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if st.Work() != plain.Work() || st.Rounds() != plain.Rounds() {
		t.Fatalf("instrumented totals (%d,%d) differ from plain (%d,%d)",
			st.Work(), st.Rounds(), plain.Work(), plain.Rounds())
	}
	snap := sink.Metrics.Snapshot()
	sum := snap.SumCounters(obs.MPrepWork+".init") + snap.SumCounters(obs.MPrepWork+".iter.")
	if sum != st.Work() {
		t.Fatalf("init+iter work sums to %d, Stats total is %d", sum, st.Work())
	}
	rsum := snap.SumCounters(obs.MPrepRounds+".init") + snap.SumCounters(obs.MPrepRounds+".iter.")
	if rsum != st.Rounds() {
		t.Fatalf("init+iter rounds sum to %d, Stats total is %d", rsum, st.Rounds())
	}
	var iterKeys int
	for name := range snap.Counters {
		if strings.HasPrefix(name, obs.MPrepWork+".iter.") {
			iterKeys++
		}
	}
	if iterKeys == 0 {
		t.Fatal("no per-iteration counters recorded")
	}
}

// TestAlg41ObsResultUnchanged: instrumentation must not perturb E+ itself.
func TestAlg41ObsResultUnchanged(t *testing.T) {
	g, tree := gridAndTree(t, []int{6, 7}, gen.UniformWeights(0.5, 4), 11, 4)
	plain, err := Alg41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{Trace: obs.NewTracer(), Metrics: obs.NewRegistry(), PprofLabels: true}
	inst, err := Alg41(g, tree, Config{Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Edges) != len(inst.Edges) || plain.RawCount != inst.RawCount {
		t.Fatalf("instrumented E+ differs: %d/%d edges, %d/%d raw",
			len(inst.Edges), len(plain.Edges), inst.RawCount, plain.RawCount)
	}
}
