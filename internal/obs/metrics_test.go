package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrentSum hammers one sharded counter from many
// goroutines and checks nothing is lost.
func TestCounterConcurrentSum(t *testing.T) {
	c := NewCounter()
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

// TestNilInstrumentsAreNoOps pins the nil-collector idiom.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	var r *Recorder
	var reg *Registry
	c.Inc()
	c.Add(3)
	h.Observe(1)
	r.Record(Event{})
	if c.Value() != 0 || h.Snapshot().Count != 0 || r.Snapshot() != nil || r.Cap() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if reg.Counter("x", "", "") != nil || reg.Histogram("x", "", "") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketIndex pins the log2 bucketing at its boundaries: exact powers
// of two belong to the bound they equal, everything else rounds up.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Ldexp(1, histMinExp-5), 0}, // below the first bound
		{math.Ldexp(1, histMinExp), 0},   // exactly the first bound
		{1, -histMinExp},                 // 2^0
		{1.5, -histMinExp + 1},           // (1, 2] bucket
		{2, -histMinExp + 1},
		{math.Ldexp(1, histMaxExp+9), histBuckets - 1}, // clamped high
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		if c.v <= 0 || math.IsNaN(c.v) {
			continue
		}
		// A value must never land in a bucket whose bound is below it
		// (that would make quantile estimates optimistic).
		if b := histBounds[bucketIndex(c.v)]; b < c.v && bucketIndex(c.v) < histBuckets-1 {
			t.Errorf("value %g landed under bound %g", c.v, b)
		}
	}
}

// TestHistogramQuantiles checks the bucket-interpolated estimates against
// a known distribution: estimates must land within one bucket of truth.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 observations uniform on (0, 1] seconds.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, tc := range []struct{ q, truth float64 }{
		{0.5, 0.5}, {0.9, 0.9}, {0.99, 0.99},
	} {
		got := h.Snapshot().Quantile(tc.q)
		// Log2 buckets around x have width ≤ x, so the estimate is within
		// a factor of two of the truth.
		if got < tc.truth/2 || got > tc.truth*2 {
			t.Errorf("p%g = %g, want within 2x of %g", tc.q*100, got, tc.truth)
		}
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if math.Abs(s.Sum-500.5) > 1e-6 {
		t.Fatalf("Sum = %g, want 500.5", s.Sum)
	}
}

// TestHistogramConcurrentObserve checks count/sum/buckets agree after a
// concurrent storm.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var bucketTotal int64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	wantSum := float64(per) * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("Sum = %g, want %g", s.Sum, wantSum)
	}
}

// TestWritePrometheus checks the exposition: HELP/TYPE ordering, label
// rendering, cumulative histogram buckets, and the quantile companion
// family.
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	ok := reg.Counter("test_queries_total", "Queries.", `outcome="ok"`)
	bad := reg.Counter("test_queries_total", "Queries.", `outcome="bad"`)
	reg.GaugeFunc("test_depth", "Depth.", "", func() float64 { return 2.5 })
	reg.GaugeFunc("test_workers", "Workers.", `worker="0"`, func() float64 { return 3 })
	h := reg.Histogram("test_latency_seconds", "Latency.", "")
	ok.Add(5)
	bad.Inc()
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_queries_total counter",
		`test_queries_total{outcome="ok"} 5`,
		`test_queries_total{outcome="bad"} 1`,
		"# TYPE test_depth gauge",
		"test_depth 2.5",
		`test_workers{worker="0"} 3`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 100`,
		"test_latency_seconds_count 100",
		"# TYPE test_latency_seconds_quantile gauge",
		`test_latency_seconds_quantile{q="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if reg.CounterValue("test_queries_total") != 6 {
		t.Fatalf("CounterValue = %d, want 6", reg.CounterValue("test_queries_total"))
	}
}

// TestRegistryCollisionPanics pins the registration-error contract: a name
// registered with two types panics, and so does a func series registered
// twice or beside an instrument series of the same labels.
func TestRegistryCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", "")
	reg.CounterFunc("y_total", "", "", func() int64 { return 1 })
	for name, f := range map[string]func(){
		"type":           func() { reg.Histogram("x_total", "", "") },
		"duplicate func": func() { reg.CounterFunc("y_total", "", "", func() int64 { return 2 }) },
		"func on counter": func() {
			reg.CounterFunc("x_total", "", "", func() int64 { return 3 })
		},
		"counter on func": func() { reg.Counter("y_total", "", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s collision did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRegistryGetOrCreate: the same name and labels return the same
// instrument of every type, other labels a new series of the same family,
// and CounterValue and WritePrometheus see both instrument and func series.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("q_total", "Queries.", `outcome="ok"`)
	if b := reg.Counter("q_total", "ignored", `outcome="ok"`); b != a {
		t.Fatal("same name and labels returned a new counter")
	}
	if b := reg.Counter("q_total", "", `outcome="shed"`); b == a {
		t.Fatal("other labels returned the same counter")
	}
	if reg.Histogram("h", "", "") != reg.Histogram("h", "", "") {
		t.Fatal("same histogram name returned a new instrument")
	}
	a.Add(2)
	reg.Counter("q_total", "", `outcome="shed"`).Inc()
	reg.CounterFunc("q_total", "", `outcome="error"`, func() int64 { return 4 })
	if got := reg.CounterValue("q_total"); got != 7 {
		t.Fatalf("CounterValue = %d, want 7", got)
	}
	if a.Value() != 2 {
		t.Fatalf("ok series = %d, want 2", a.Value())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); strings.Count(out, "# TYPE q_total counter") != 1 || !strings.Contains(out, `q_total{outcome="error"} 4`) {
		t.Fatalf("exposition:\n%s", out)
	}
}
