package sepsp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
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

// TestObserverMetricsReconcileWithStats is the acceptance check of an
// index observed through Options.Telemetry: the per-level and per-phase
// families sum exactly to the Index.Stats() totals.
func TestObserverMetricsReconcileWithStats(t *testing.T) {
	g, coords := obsTestGraph(t)
	tel := NewTelemetry(nil)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(coords), Telemetry: tel})
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
	// The per-level families carry the same rows, one series per level.
	work, rounds := promSeries(t, tel, "sepsp_prep_work_total"), promSeries(t, tel, "sepsp_prep_rounds_total")
	contrib := promSeries(t, tel, "sepsp_prep_contributions_total")
	if len(work) != len(st.Levels) {
		t.Fatalf("sepsp_prep_work_total has %d series, want one per level (%d)", len(work), len(st.Levels))
	}
	for _, ls := range st.Levels {
		lbl := `level="` + strconv.Itoa(ls.Level) + `"`
		if work[lbl] != ls.Work || rounds[lbl] != ls.Rounds || contrib[lbl] != ls.Shortcuts {
			t.Fatalf("level %d: series work=%d rounds=%d contributions=%d, Stats %+v",
				ls.Level, work[lbl], rounds[lbl], contrib[lbl], ls)
		}
	}

	// Static per-phase breakdown reconciles with the totals.
	if len(st.PhaseBreakdown) == 0 {
		t.Fatal("PhaseBreakdown should always be populated")
	}
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
	relax := promSeries(t, tel, "sepsp_query_relaxations_total")
	var qw int64
	for _, ps := range st.PhaseBreakdown {
		if got := relax[`kind="`+ps.Kind+`"`]; got != ps.Work {
			t.Fatalf("kind %s: %d relaxations, PhaseBreakdown says %d", ps.Kind, got, ps.Work)
		}
	}
	for _, v := range relax {
		qw += v
	}
	// Every phase runs, so the per-kind counters reconcile exactly with
	// the static per-source cost in Stats.
	if qw != st.QueryWork {
		t.Fatalf("sepsp_query_relaxations_total sums to %d, Stats.QueryWork is %d", qw, st.QueryWork)
	}
	if got := tel.reg.CounterValue("sepsp_query_phases_total"); got != int64(st.QueryPhases) {
		t.Fatalf("sepsp_query_phases_total %d, want %d", got, st.QueryPhases)
	}
	// The index is attached at build: its executor's gauges show without
	// a Server.
	if busy := promSeries(t, tel, "sepsp_worker_busy_iterations"); len(busy) != 1 {
		t.Fatalf("%d worker busy gauges, want 1 worker", len(busy))
	}
	if imb := promSeries(t, tel, "sepsp_exec_load_imbalance"); len(imb) != 1 || imb[`index="0"`] != 1 {
		t.Fatalf("P=1 build must report imbalance exactly 1, got %v", imb)
	}
}

// TestObserverTraceHasAllPrepLevelsAndQueryPhases checks the exported
// Chrome trace of a tracing Telemetry: a span per preprocessing tree level
// and per query phase.
func TestObserverTraceHasAllPrepLevelsAndQueryPhases(t *testing.T) {
	g, coords := obsTestGraph(t)
	tel := NewTelemetry(&TelemetryOptions{Trace: true})
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(coords), Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	mustSSSP(t, ix, 0)

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
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

	// Without the Trace option the same build records no spans.
	quiet := NewTelemetry(nil)
	ix, err = Build(g, &Options{Decomposition: GridDecomposition(coords), Telemetry: quiet})
	if err != nil {
		t.Fatal(err)
	}
	mustSSSP(t, ix, 0)
	buf.Reset()
	if err := quiet.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "query.phase") || strings.Contains(buf.String(), "prep.level") {
		t.Fatalf("untraced Telemetry recorded spans: %s", buf.String())
	}
}

// TestStatsLevelsOnEveryEpoch: Stats.Levels is filled by an uninstrumented
// Build and by WithWeights, and a reweighted epoch's levels equal a fresh
// Build's for the same weights and sum to its PrepWork and PrepRounds.
func TestStatsLevelsOnEveryEpoch(t *testing.T) {
	g, coords := obsTestGraph(t)
	opt := &Options{Decomposition: GridDecomposition(coords)}
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); len(st.Levels) != st.TreeHeight+1 || len(st.PhaseBreakdown) == 0 {
		t.Fatalf("uninstrumented Build: %d level rows (height %d), %d phase kinds",
			len(st.Levels), st.TreeHeight, len(st.PhaseBreakdown))
	}
	g2 := NewGraph(g.N())
	for i, e := range refGraph(g).EdgeList() {
		g2.AddEdge(e.From, e.To, e.W*float64(1+i%4))
	}
	re, err := ix.WithWeights(g2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, want := re.Stats(), fresh.Stats()
	if got.Levels == nil || !reflect.DeepEqual(got.Levels, want.Levels) {
		t.Fatalf("reweighted levels %+v, fresh Build %+v", got.Levels, want.Levels)
	}
	var work, rounds int64
	for _, ls := range got.Levels {
		work += ls.Work
		rounds += ls.Rounds
	}
	if work != got.PrepWork || rounds != got.PrepRounds {
		t.Fatalf("reweighted levels sum to work=%d rounds=%d, Stats %d/%d", work, rounds, got.PrepWork, got.PrepRounds)
	}
}

// TestWithWeightsKeepsObserverAndInjector: the index WithWeights returns
// records its reweight and its queries into the Telemetry the original
// index was built with and fires its fault injector at every query phase,
// so a Manager epoch after the first stays observed.
func TestWithWeightsKeepsObserverAndInjector(t *testing.T) {
	g, coords := obsTestGraph(t)
	tel := NewTelemetry(nil)
	inj := faultinject.NewSeeded(faultinject.Config{Seed: 1, Sites: map[string]faultinject.SiteConfig{faultinject.SiteQueryPhase: {}}})
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(coords), Telemetry: tel, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph(g.N())
	for _, e := range refGraph(g).EdgeList() {
		g2.AddEdge(e.From, e.To, e.W+1)
	}
	prepWork := tel.reg.CounterValue("sepsp_prep_work_total")
	re, err := ix.WithWeights(g2)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.reg.CounterValue("sepsp_prep_work_total") - prepWork; got != re.Stats().PrepWork {
		t.Fatalf("sepsp_prep_work_total grew by %d on the reweight, want its PrepWork %d", got, re.Stats().PrepWork)
	}
	phases, calls := tel.reg.CounterValue("sepsp_query_phases_total"), inj.Calls(faultinject.SiteQueryPhase)
	mustSSSP(t, re, 0)
	want := int64(re.Stats().QueryPhases)
	if got := tel.reg.CounterValue("sepsp_query_phases_total") - phases; got != want {
		t.Fatalf("sepsp_query_phases_total grew by %d on the reweighted index, want %d", got, want)
	}
	if got := inj.Calls(faultinject.SiteQueryPhase) - calls; got != uint64(want) {
		t.Fatalf("injector fired %d times on the reweighted index, want %d", got, want)
	}
}
