package sepsp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sepsp/internal/faultinject"
)

func obsTestGraph(t *testing.T) (*Graph, [][]int) {
	t.Helper()
	// 8×8 grid with deterministic weights; coordinates enable hyperplane
	// separators so the tree shape is deterministic too.
	const w, h = 8, 8
	g := NewGraph(w * h)
	coords := make([][]int, w*h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			coords[id(x, y)] = []int{x, y}
			if x+1 < w {
				g.AddBoth(id(x, y), id(x+1, y), float64(1+(x+y)%3))
			}
			if y+1 < h {
				g.AddBoth(id(x, y), id(x, y+1), float64(1+(x*y)%5))
			}
		}
	}
	return g, coords
}

// TestObserverMetricsReconcileWithStats is the acceptance check: per-phase
// and per-level metric values sum exactly to the Index.Stats() totals.
func TestObserverMetricsReconcileWithStats(t *testing.T) {
	g, coords := obsTestGraph(t)
	ob := NewObserver()
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(coords), Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()

	// Per-level preprocessing breakdown reconciles with the totals.
	if len(st.Levels) != st.TreeHeight+1 {
		t.Fatalf("got %d level rows, want %d", len(st.Levels), st.TreeHeight+1)
	}
	var lw, lr, lsc int64
	var nodes int
	for _, ls := range st.Levels {
		lw += ls.Work
		lr += ls.Rounds
		lsc += ls.Shortcuts
		nodes += ls.Nodes
	}
	if lw != st.PrepWork || lr != st.PrepRounds {
		t.Fatalf("level sums work=%d rounds=%d, Stats totals %d/%d", lw, lr, st.PrepWork, st.PrepRounds)
	}
	if lsc < int64(st.Shortcuts) {
		t.Fatalf("level shortcut contributions %d < |E+| %d", lsc, st.Shortcuts)
	}
	if nodes == 0 {
		t.Fatal("no tree nodes attributed to levels")
	}

	// Static per-phase breakdown reconciles with the totals.
	var pw int64
	var pp int
	for _, ps := range st.PhaseBreakdown {
		pw += ps.Work
		pp += ps.Phases
	}
	if pw != st.QueryWork || pp != st.QueryPhases {
		t.Fatalf("phase breakdown sums work=%d phases=%d, Stats totals %d/%d", pw, pp, st.QueryWork, st.QueryPhases)
	}

	// Dynamic per-phase counters after exactly one query reconcile too.
	mustSSSP(t, ix, 0)
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]float64
	}
	var buf bytes.Buffer
	if err := ob.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	var qw int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "query.work.") {
			qw += v
		}
	}
	// Every phase runs, so the per-kind counters reconcile exactly with
	// the static per-source cost in Stats.
	if qw != st.QueryWork {
		t.Fatalf("query.work.* counters sum to %d, Stats.QueryWork is %d", qw, st.QueryWork)
	}
	if got := snap.Counters["query.phases"]; got != int64(st.QueryPhases) {
		t.Fatalf("query.phases %d, want %d", got, st.QueryPhases)
	}
	if snap.Gauges["exec.workers"] != 1 {
		t.Fatalf("exec.workers gauge %v, want 1", snap.Gauges["exec.workers"])
	}
	if snap.Gauges["exec.imbalance"] != 1 {
		t.Fatalf("P=1 build must report imbalance exactly 1, got %v", snap.Gauges["exec.imbalance"])
	}
}

// TestObserverTraceHasAllPrepLevelsAndQueryPhases checks the exported
// Chrome trace: a span per preprocessing tree level and per query phase.
func TestObserverTraceHasAllPrepLevelsAndQueryPhases(t *testing.T) {
	g, coords := obsTestGraph(t)
	ob := NewObserver()
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(coords), Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	mustSSSP(t, ix, 0)

	var buf bytes.Buffer
	if err := ob.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	st := ix.Stats()
	prepLevels := map[float64]bool{}
	queryPhases := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "prep.level":
			prepLevels[ev.Args["level"].(float64)] = true
		case "query.phase":
			queryPhases++
		}
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	for L := 0; L <= st.TreeHeight; L++ {
		if !prepLevels[float64(L)] {
			t.Fatalf("no prep.level span for level %d", L)
		}
	}
	// Every phase runs, so there is one span per phase of the schedule.
	if queryPhases != st.QueryPhases {
		t.Fatalf("trace has %d query.phase spans, want %d", queryPhases, st.QueryPhases)
	}
}

// TestBuildWithoutObserverLeavesLevelsNil guards the disabled fast path.
func TestBuildWithoutObserverLeavesLevelsNil(t *testing.T) {
	g, coords := obsTestGraph(t)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(coords)})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Levels != nil {
		t.Fatal("Levels populated without an observer")
	}
	if len(st.PhaseBreakdown) == 0 {
		t.Fatal("PhaseBreakdown should always be populated")
	}
}

// TestWithWeightsKeepsObserverAndInjector: the index WithWeights returns
// reports its queries to the Observer the original index was built with
// and fires its fault injector at every query phase, so a Manager epoch
// after the first stays observed.
func TestWithWeightsKeepsObserverAndInjector(t *testing.T) {
	g, coords := obsTestGraph(t)
	ob := NewObserver()
	inj := faultinject.NewSeeded(faultinject.Config{Seed: 1, Sites: map[string]faultinject.SiteConfig{faultinject.SiteQueryPhase: {}}})
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(coords), Observer: ob, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph(g.N())
	for _, e := range refGraph(g).EdgeList() {
		g2.AddEdge(e.From, e.To, e.W+1)
	}
	re, err := ix.WithWeights(g2)
	if err != nil {
		t.Fatal(err)
	}
	phases, calls := ob.CounterValue("query.phases"), inj.Calls(faultinject.SiteQueryPhase)
	mustSSSP(t, re, 0)
	want := int64(re.Stats().QueryPhases)
	if got := ob.CounterValue("query.phases") - phases; got != want {
		t.Fatalf("query.phases grew by %d on the reweighted index, want %d", got, want)
	}
	if got := inj.Calls(faultinject.SiteQueryPhase) - calls; got != uint64(want) {
		t.Fatalf("injector fired %d times on the reweighted index, want %d", got, want)
	}
}
