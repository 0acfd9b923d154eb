package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"sepsp/internal/graph/gen"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
)

// TestSchedulePhasesFormula is the deterministic regression test for the
// §3.2 schedule shape: Phases() == 2ℓ + 4(d_G + 1), PhaseAt enumerates
// that many phases with consecutive indices, whose arena buckets sum to
// WorkPerSource, and the static Breakdown reconciles with WorkPerSource.
func TestSchedulePhasesFormula(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{8, 8}, gen.UniformWeights(0.5, 2), 5, Config{})
	s := eng.Schedule()
	tree := eng.Tree()

	l := tree.Ell()
	want := 2*l + 4*(tree.Height+1)
	if got := s.Phases(); got != want {
		t.Fatalf("Phases()=%d, want 2ℓ+4(d_G+1)=%d (ℓ=%d, d_G=%d)", got, want, l, tree.Height)
	}

	var emitted int
	var relaxations int64
	for i := 0; i < s.Phases(); i++ {
		ph, b := s.PhaseAt(i)
		if ph.Index != emitted {
			t.Fatalf("phase index %d out of order (want %d)", ph.Index, emitted)
		}
		switch ph.Kind {
		case PhaseEllPre, PhaseEllPost:
			if ph.Level != -1 {
				t.Fatalf("ℓ-sweep phase carries level %d", ph.Level)
			}
		default:
			if ph.Level < 0 || ph.Level > tree.Height {
				t.Fatalf("phase kind %s has level %d outside [0,%d]", ph.Kind, ph.Level, tree.Height)
			}
		}
		emitted++
		relaxations += int64(b.Edges())
	}
	if emitted != want {
		t.Fatalf("PhaseAt enumerated %d phases, want %d", emitted, want)
	}
	if relaxations != s.WorkPerSource() {
		t.Fatalf("PhaseAt buckets hold %d edges, WorkPerSource says %d", relaxations, s.WorkPerSource())
	}

	var bdPhases int
	var bdWork int64
	for _, pw := range s.Breakdown() {
		bdPhases += pw.Phases
		bdWork += pw.Work
	}
	if bdPhases != want || bdWork != s.WorkPerSource() {
		t.Fatalf("Breakdown sums phases=%d work=%d, want %d and %d", bdPhases, bdWork, want, s.WorkPerSource())
	}
}

// TestQueryPhaseMetricsSumToStats asserts the instrumentation neither
// double- nor under-counts: after one SSSP, the per-phase-kind relaxation
// counters sum exactly to the pram.Stats work total (which itself equals the
// schedule's WorkPerSource), and the phase counter matches Phases().
func TestQueryPhaseMetricsSumToStats(t *testing.T) {
	sink := &obs.Sink{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
	prep := &pram.Stats{}
	eng, g := buildGridEngine(t, []int{9, 7}, gen.UniformWeights(0.5, 2), 9, Config{Obs: sink, PrepStats: prep})

	// The construction's per-level families sum to its counted totals.
	reg := sink.Metrics
	if got := reg.CounterValue(metricPrepWork); got != prep.Work() {
		t.Fatalf("prep work series sum to %d, Stats total is %d", got, prep.Work())
	}
	if got := reg.CounterValue(metricPrepRounds); got != prep.Rounds() {
		t.Fatalf("prep rounds series sum to %d, Stats total is %d", got, prep.Rounds())
	}
	if got := reg.CounterValue(metricPrepContributions); got != eng.Augmentation().RawCount {
		t.Fatalf("prep contribution series sum to %d, RawCount is %d", got, eng.Augmentation().RawCount)
	}

	prepEvents := sink.Trace.Len() // spans emitted by E+ construction
	st := &pram.Stats{}
	dist := eng.SSSP(0, st)

	if got := reg.CounterValue(metricQueryRelaxations); got != st.Work() {
		t.Fatalf("per-phase work counters sum to %d, Stats total is %d", got, st.Work())
	}
	if st.Work() != eng.Schedule().WorkPerSource() {
		t.Fatalf("Stats work %d != WorkPerSource %d", st.Work(), eng.Schedule().WorkPerSource())
	}
	phases := eng.Schedule().Phases()
	if got := reg.CounterValue(metricQueryPhases); got != int64(phases) {
		t.Fatalf("phase counter %d, want Phases %d", got, phases)
	}
	// One query.sssp span plus one query.phase span per phase.
	if got := sink.Trace.Len() - prepEvents; got != phases+1 {
		t.Fatalf("query added %d trace events, want %d", got, phases+1)
	}
	if prepEvents == 0 {
		t.Fatal("preprocessing emitted no spans")
	}

	// The instrumented path must compute the same distances as the plain one.
	plainEng, _ := buildGridEngine(t, []int{9, 7}, gen.UniformWeights(0.5, 2), 9, Config{})
	for v, d := range plainEng.SSSP(0, nil) {
		if !almostEqual(d, dist[v]) {
			t.Fatalf("instrumented dist[%d]=%v, plain %v", v, dist[v], d)
		}
	}
	_ = g
}

// TestEngineObsDisabledPathUntouched: with no sink, queries take the
// uninstrumented path and counted work matches the schedule exactly — and
// the plain and instrumented paths agree to the unit.
func TestEngineObsDisabledPathUntouched(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{8, 8}, gen.UniformWeights(0.5, 2), 5, Config{})
	st := &pram.Stats{}
	eng.SSSP(3, st)
	if st.Work() != eng.Schedule().WorkPerSource() || st.Rounds() != int64(eng.Schedule().Phases()) {
		t.Fatalf("work %d, rounds %d; want WorkPerSource %d, Phases %d",
			st.Work(), st.Rounds(), eng.Schedule().WorkPerSource(), eng.Schedule().Phases())
	}

	obsEng, _ := buildGridEngine(t, []int{8, 8}, gen.UniformWeights(0.5, 2), 5,
		Config{Obs: &obs.Sink{Metrics: obs.NewRegistry()}})
	stObs := &pram.Stats{}
	obsEng.SSSP(3, stObs)
	if st.Work() != stObs.Work() || st.Rounds() != stObs.Rounds() {
		t.Fatalf("plain path (%d,%d) disagrees with instrumented (%d,%d)",
			st.Work(), st.Rounds(), stObs.Work(), stObs.Rounds())
	}
}

// TestWaveObservedCounters: with a sink attached, a wave's per-kind
// relaxation counters add up to k copies of the schedule's Breakdown (so
// they sum to the wave's Stats work, k × WorkPerSource) and the phase
// counter to k × Phases — the same totals k solo queries record — for
// one-lane, padded and multi-block waves on one and two workers. Spans
// come one per block and phase, and their lanes sum to the phase counter.
func TestWaveObservedCounters(t *testing.T) {
	plain, g := buildGridEngine(t, []int{9, 7}, gen.UniformWeights(0.5, 2), 9, Config{})
	s := plain.Schedule()
	for _, p := range []int{1, 2} {
		for _, k := range []int{1, 2, 3, 5, 17, 33} {
			sink := &obs.Sink{Trace: obs.NewTracer(), Metrics: obs.NewRegistry()}
			eng, err := NewEngine(g, plain.Tree(), Config{Ex: pram.NewExecutor(p), Obs: sink})
			if err != nil {
				t.Fatal(err)
			}
			srcs := make([]int, k)
			for j := range srcs {
				srcs[j] = (j * 5) % g.N()
			}
			st := &pram.Stats{}
			rows := eng.SourcesBatched(srcs, st)
			for j, src := range srcs {
				for v, want := range plain.SSSP(src, nil) {
					if rows[j][v] != want {
						t.Fatalf("P=%d k=%d src=%d v=%d: observed wave %v, SSSP %v", p, k, src, v, rows[j][v], want)
					}
				}
			}
			reg := sink.Metrics
			for _, pw := range s.Breakdown() {
				if got, want := eng.qm.work[pw.Kind].Value(), int64(k)*pw.Work; got != want {
					t.Fatalf("P=%d k=%d: %s work counter %d, want k x %d = %d", p, k, pw.Kind, got, pw.Work, want)
				}
			}
			if got, want := reg.CounterValue(metricQueryRelaxations), int64(k)*s.WorkPerSource(); got != st.Work() || got != want {
				t.Fatalf("P=%d k=%d: work counters sum to %d, Stats %d, want k x WorkPerSource = %d", p, k, got, st.Work(), want)
			}
			phaseCount := reg.CounterValue(metricQueryPhases)
			if got, want := phaseCount, int64(k*s.Phases()); got != want {
				t.Fatalf("P=%d k=%d: phase counter %d, want k x Phases = %d", p, k, got, want)
			}
			var buf bytes.Buffer
			if err := sink.Trace.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			var spanLanes float64
			for _, ev := range doc.TraceEvents {
				if ev.Name == "query.phase" {
					spanLanes += ev.Args["lanes"].(float64)
				}
			}
			if got := int64(spanLanes); got != phaseCount {
				t.Fatalf("P=%d k=%d: query.phase span lanes sum to %d, phase counter %d", p, k, got, phaseCount)
			}
		}
	}
}
