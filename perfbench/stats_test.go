package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestRankDoesNotRoundPastExactProducts(t *testing.T) {
	// 0.99 is not exact in binary; 0.99*1000 must still rank 990.
	if r := rank(1000, 0.99); r != 990 {
		t.Fatalf("rank(1000, 0.99) = %d, want 990", r)
	}
	if r := rank(10, 0.5); r != 5 {
		t.Fatalf("rank(10, 0.5) = %d, want 5", r)
	}
}

func TestTailSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // exactly ten beyond
		{999, 0.99, false},
		{200, 0.95, true},
		{199, 0.95, false},
		{100, 0.9, true},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
}

func TestSampleMedianAndMean(t *testing.T) {
	s := sample{3, 1, 2, 10}
	if got := s.median(); got != 2 {
		t.Errorf("median = %v, want 2 (nearest rank, lower middle)", got)
	}
	if got := s.mean(); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
	if s[0] != 3 {
		t.Error("median sorted the sample in place")
	}
}

const exposition0 = `# HELP h_seconds x
# TYPE h_seconds histogram
h_seconds_bucket{le="0.001953125"} 4
h_seconds_bucket{le="0.00390625"} 10
h_seconds_bucket{le="+Inf"} 10
h_seconds_sum 0.03
h_seconds_count 10
# HELP h_seconds_quantile q
# TYPE h_seconds_quantile gauge
h_seconds_quantile{q="0.5"} 0.003
`

const exposition1 = `# TYPE h_seconds histogram
h_seconds_bucket{le="0.001953125"} 4
h_seconds_bucket{le="0.00390625"} 10
h_seconds_bucket{le="0.015625"} 110
h_seconds_bucket{le="+Inf"} 110
h_seconds_sum 1.23
h_seconds_count 110
`

func TestHistogramSinceExcludesEarlierObservations(t *testing.T) {
	h0, err := parseHistograms(exposition0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := parseHistograms(exposition1)
	if err != nil {
		t.Fatal(err)
	}
	d := h1["h_seconds"].since(h0["h_seconds"])
	if d.Count != 100 {
		t.Fatalf("count since = %d, want 100", d.Count)
	}
	if math.Abs(d.Sum-1.2) > 1e-12 {
		t.Fatalf("sum since = %v, want 1.2", d.Sum)
	}
	// All 100 new observations sit in the (2^-7, 2^-6] bucket.
	if q := d.Quantile(0.5); q <= 0.0078125 || q > 0.015625 {
		t.Fatalf("median since = %v, want inside (0.0078125, 0.015625]", q)
	}
	all := h1["h_seconds"].since(nil)
	if all.Count != 110 {
		t.Fatalf("count since nil = %d, want 110", all.Count)
	}
	if q := all.Quantile(0.01); q > 0.001953125 {
		t.Fatalf("p1 of everything = %v, want inside the first bucket", q)
	}
}

func TestParseHistogramsRejectsGarbage(t *testing.T) {
	if _, err := parseHistograms("h_seconds_count notanumber\n"); err == nil {
		t.Fatal("want an error for a non-numeric sample")
	}
}

func TestLatencyMetricsNoteTheTail(t *testing.T) {
	var lat sample
	for i := 1; i <= 200; i++ {
		lat = append(lat, float64(i))
	}
	ms := latencyMetrics(lat, "calls")
	if len(ms) != 3 || ms[0].value != 100 || ms[1].value != 180 || ms[2].value != 198 {
		t.Fatalf("latencyMetrics = %+v", ms)
	}
	// 200 samples: 20 beyond p90, 2 beyond p99, which the note must flag.
	if !strings.HasSuffix(ms[1].note, "; 20 beyond") || !strings.HasSuffix(ms[2].note, "; only 2 beyond") {
		t.Fatalf("notes %q, %q", ms[1].note, ms[2].note)
	}
}
