package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sepsp/internal/obs"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to rest on more than a few points.
const minTail = 10

// rank is the 1-based nearest-rank position of the q-quantile among n
// sorted samples. The epsilon keeps q·n from rounding up past an exact
// integer (0.99·1000 is 990, not 991).
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of sorted (ascending), or
// 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond is how many of n samples lie past the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supported reports whether n samples leave at least minTail samples
// beyond the q-quantile.
func supported(n int, q float64) bool { return beyond(n, q) >= minTail }

// latencyMetrics summarizes latencies (milliseconds) as their median, 90th
// and 99th percentiles, noting how many samples lie beyond each tail.
// They are per-layer metrics, not end-to-end ones: on a host whose cores
// are shared, open-loop latency moves with the host's own stalls, two- to
// threefold from run to run, far past any bound a gate could hold.
func latencyMetrics(lat sample, what string) []metric {
	sorted := lat.sorted()
	n := len(sorted)
	tail := func(q float64) string {
		if supported(n, q) {
			return fmt.Sprintf("%s; %d beyond", what, beyond(n, q))
		}
		return fmt.Sprintf("%s; only %d beyond", what, beyond(n, q))
	}
	return []metric{
		{name: "requests.latency_p50_ms", value: percentile(sorted, 0.5), unit: "ms", n: n, note: what},
		{name: "requests.latency_p90_ms", value: percentile(sorted, 0.9), unit: "ms", n: n, note: tail(0.9)},
		{name: "requests.latency_p99_ms", value: percentile(sorted, 0.99), unit: "ms", n: n, note: tail(0.99)},
	}
}

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func (s sample) median() float64 { return percentile(s.sorted(), 0.5) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// promHist is one histogram family read from Prometheus text exposition:
// cumulative bucket counts by upper bound, plus the sum and count.
type promHist struct {
	cum   map[float64]int64
	sum   float64
	count int64
}

// parseHistograms extracts every unlabelled histogram family from
// Prometheus text exposition, keyed by family name.
func parseHistograms(text string) (map[string]*promHist, error) {
	out := map[string]*promHist{}
	get := func(name string) *promHist {
		h := out[name]
		if h == nil {
			h = &promHist{cum: map[float64]int64{}}
			out[name] = h
		}
		return h
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		switch {
		case strings.HasSuffix(key, `_bucket{le="+Inf"}`):
			continue // equals _count
		case strings.Contains(key, `_bucket{le="`):
			i := strings.Index(key, `_bucket{le="`)
			le, err := strconv.ParseFloat(strings.TrimSuffix(key[i+len(`_bucket{le="`):], `"}`), 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %v", line, err)
			}
			get(key[:i]).cum[le] = int64(v)
		case strings.HasSuffix(key, "_sum") && !strings.Contains(key, "{"):
			get(strings.TrimSuffix(key, "_sum")).sum = v
		case strings.HasSuffix(key, "_count") && !strings.Contains(key, "{"):
			get(strings.TrimSuffix(key, "_count")).count = int64(v)
		}
	}
	return out, sc.Err()
}

// buckets returns the per-bucket (not cumulative) counts by upper bound.
// The exposition elides empty buckets, so de-cumulating across the bounds
// that are listed is exact.
func (h *promHist) buckets() map[float64]int64 {
	les := make([]float64, 0, len(h.cum))
	for le := range h.cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	out := make(map[float64]int64, len(les))
	var last int64
	for _, le := range les {
		out[le] = h.cum[le] - last
		last = h.cum[le]
	}
	return out
}

// since returns the observations made between an earlier reading of the
// same histogram (nil: none) and h, as a snapshot the repository's bucket
// estimator reads. The buckets are powers of two, so each bucket's lower
// bound, half its upper bound, is put back with a zero count for the
// estimator to interpolate from.
func (h *promHist) since(before *promHist) obs.HistogramSnapshot {
	now := h.buckets()
	var prev map[float64]int64
	var snap obs.HistogramSnapshot
	if before != nil {
		prev = before.buckets()
		snap.Count, snap.Sum = -before.count, -before.sum
	}
	snap.Count += h.count
	snap.Sum += h.sum
	counts := map[float64]int64{}
	for le, c := range now {
		if d := c - prev[le]; d > 0 {
			counts[le] += d
			if _, ok := counts[le/2]; !ok {
				counts[le/2] = 0
			}
		}
	}
	var inBuckets int64
	for b, c := range counts {
		snap.Bounds = append(snap.Bounds, b)
		inBuckets += c
	}
	sort.Float64s(snap.Bounds)
	for _, b := range snap.Bounds {
		snap.Counts = append(snap.Counts, counts[b])
	}
	snap.Counts = append(snap.Counts, snap.Count-inBuckets) // past the last bound
	return snap
}
