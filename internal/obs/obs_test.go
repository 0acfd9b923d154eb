package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorsAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "c", "k", 1)
	sp.End()
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var reg *Registry
	reg.Counter("a", "", "").Add(5)
	reg.GaugeFunc("b", "", "", func() float64 { return 1 })
	reg.Histogram("c", "", "").Observe(1)
	if reg.CounterValue("a") != 0 {
		t.Fatal("nil registry counted")
	}

	var sink *Sink
	if sink.Traced() {
		t.Fatal("nil sink traced")
	}
	sink.Span("x", "c").End()
	ran := false
	sink.Do(func() { ran = true }, "phase", "p")
	if !ran {
		t.Fatal("nil sink did not run f")
	}
	if (&Sink{}).Traced() || (&Sink{Metrics: NewRegistry()}).Traced() {
		t.Fatal("zero or metrics-only sink traced")
	}
}

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("prep.level", "prep", "level", 3, "nodes", 7)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Start("worker", "exec").End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev["name"] != "prep.level" || ev["ph"] != "X" {
		t.Fatalf("bad complete event: %v", ev)
	}
	if ev["dur"].(float64) < 500 {
		t.Fatalf("1ms span has dur %v µs", ev["dur"])
	}
	args := ev["args"].(map[string]any)
	if args["level"].(float64) != 3 || args["nodes"].(float64) != 7 {
		t.Fatalf("bad args: %v", args)
	}
	if ev := doc.TraceEvents[1]; ev["name"] != "worker" || ev["tid"].(float64) != 0 {
		t.Fatalf("bad second event: %v", ev)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Start("s", "c", "g", g).End()
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("got %d events, want 800", tr.Len())
	}
}

func TestRegistrySnapshotAndSums(t *testing.T) {
	r := NewRegistry()
	r.Counter("work_total", "", `level="0"`).Add(10)
	r.Counter("work_total", "", `level="12"`).Add(32)
	r.Counter("other", "", "").Add(5)
	h := r.Histogram("per_node", "", "")
	h.Observe(3)
	h.Observe(5)

	// Same name must return the same instrument.
	r.Counter("other", "", "").Add(1)
	if got := r.CounterValue("other"); got != 6 {
		t.Fatalf("counter identity broken: %d", got)
	}
	// A family's value is the sum of its series.
	if got := r.CounterValue("work_total"); got != 42 {
		t.Fatalf("CounterValue=%d, want 42", got)
	}
	hs := h.Snapshot()
	if hs.Count != 2 || hs.Sum != 8 || hs.Mean() != 4 {
		t.Fatalf("histogram snapshot: %+v", hs)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	txt := b.String()
	if !strings.Contains(txt, `work_total{level="12"} 32`) ||
		!strings.Contains(txt, "per_node_count 2") {
		t.Fatalf("exposition:\n%s", txt)
	}
}

func TestProfilerWritesFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	p, err := StartProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile is non-trivial.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if err := (*Profiler)(nil).Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkDoAppliesLabels(t *testing.T) {
	s := &Sink{Trace: NewTracer()}
	if !s.Traced() {
		t.Fatal("tracing sink not traced")
	}
	ran := false
	s.Do(func() { ran = true }, "phase", "query")
	if !ran {
		t.Fatal("Do did not run f")
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	// 100 observations of 1..100 in the log2 buckets.
	reg := NewRegistry()
	h := reg.Histogram("q", "", "")
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	for _, tc := range []struct{ q, lo, hi float64 }{
		// The estimate must land in the same bucket as the true order
		// statistic: p50 (true 50) in (32, 64], p99 (true 99) in (64, 128].
		{0.5, 32, 64},
		{0.99, 64, 128},
		{0, 0.5, 1},  // clamped to rank 1: the (0.5, 1] bucket
		{1, 64, 128}, // rank 100
	} {
		got := s.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("Quantile(%g) = %g, want in [%g, %g]", tc.q, got, tc.lo, tc.hi)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %g, want 0", got)
	}
	// Boundary exactness: all mass in one bucket interpolates across it.
	s := HistogramSnapshot{
		Count:  4,
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 4, 0, 0},
	}
	if got := s.Quantile(1); got != 2 {
		t.Fatalf("Quantile(1) = %g, want upper bound 2", got)
	}
	if got := s.Quantile(0.5); got != 1.5 {
		t.Fatalf("Quantile(0.5) = %g, want midpoint 1.5", got)
	}
	// Overflow-bucket mass clamps to the last bound.
	over := HistogramSnapshot{
		Count:  2,
		Bounds: []float64{1, 2},
		Counts: []int64{0, 0, 2},
	}
	if got := over.Quantile(0.99); got != 2 {
		t.Fatalf("overflow Quantile = %g, want 2", got)
	}
}

func TestLog2Bounds(t *testing.T) {
	b := Log2Bounds(-2, 3)
	want := []float64{0.25, 0.5, 1, 2, 4, 8}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("b[%d] = %g, want %g", i, b[i], want[i])
		}
	}
}
