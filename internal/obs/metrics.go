package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// nShards is the number of counter cells: the next power of two at or above
// GOMAXPROCS at init, capped at 64. More shards than processors buys
// nothing; fewer re-serializes hot counters.
var nShards = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}()

// shardIdx picks a cell for the calling goroutine. Goroutine identity is
// deliberately inaccessible in Go, so we hash the address of a stack
// variable: stacks are goroutine-private and at least 1KiB apart, which
// spreads concurrent writers across cells. The index only affects which
// cell absorbs the add — any value is correct.
func shardIdx() int {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return int((p>>10)^(p>>17)) & (nShards - 1)
}

// pad64 keeps each shard cell on its own cache line (64B on the targets we
// care about), so counters touched by different processors do not falsely
// share a line.
type pad64 struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing integer safe for per-query
// hot-path increments from many goroutines: adds land on per-goroutine
// cells, reads sum the cells. Reads are O(nShards) — scrape-time only.
type Counter struct{ cells []pad64 }

// NewCounter returns a counter outside any registry, for counts a
// component keeps itself and a registry exposes through a func series.
func NewCounter() *Counter { return &Counter{cells: make([]pad64, nShards)} }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.cells[shardIdx()].n.Add(n)
	}
}

// Value sums the cells (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Histogram bucketing: bounds are 2^histMinExp … 2^histMaxExp. With values
// in seconds that spans sub-nanosecond to ~272 years; with values in plain
// counts (wave sizes, per-node E+ contributions) it spans 1 … 2^33.
// Everything below the first bound lands in bucket 0, everything above the
// last in the top bucket.
const (
	histMinExp  = -30
	histMaxExp  = 33
	histBuckets = histMaxExp - histMinExp + 1
)

// histBounds is the shared bound slice every snapshot references (the
// bounds are static, so one allocation serves all scrapes).
var histBounds = Log2Bounds(histMinExp, histMaxExp)

// Histogram accumulates observations into log2-spaced buckets with one
// atomic add per observation, plus a CAS-accumulated sum — no lock
// anywhere on the observe path. Quantiles are estimated from the
// bucket counts at read time; the estimate is exact at bucket boundaries
// and off by at most one power-of-two bucket width inside one, which is
// the right trade for latency telemetry (a p99 of "1.6ms, somewhere in
// (1ms, 2ms]" is as actionable as an exact order statistic, and the
// observe path stays wait-free).
type Histogram struct {
	sumBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps v to its bucket: the index of the smallest bound ≥ v,
// computed from the floating-point exponent instead of a bounds search.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	f, e := math.Frexp(v) // v = f × 2^e, f ∈ [0.5, 1)
	if f == 0.5 {
		e-- // exact powers of two belong to the bound they equal
	}
	i := e - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one sample: one atomic add and one CAS loop on the sum
// word.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot freezes the histogram. The snapshot count is derived from the
// bucket counts so count and buckets always agree (the exposition's +Inf
// bucket must equal _count even mid-scrape); the sum may lag by the
// handful of in-flight observations — fine for telemetry, never torn.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: histBounds}
	if h == nil {
		return s
	}
	counts := make([]int64, histBuckets+1) // +1: empty overflow bucket
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.Counts = counts
	s.Count = total
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// HistogramSnapshot is a histogram's frozen state.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // parallel to Bounds, plus one overflow bucket
}

// Mean returns the observation mean (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution: the owning bucket is located by rank and the estimate
// interpolates linearly between the bucket's lower and upper bound — the
// standard bucketed-histogram estimator. Estimates are exact at bucket
// boundaries and off by at most one bucket width inside a bucket;
// observations past the last bound are clamped to it. Returns 0 when the
// histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*float64(rank-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Log2Bounds returns geometric bucket upper bounds 2^minExp … 2^maxExp, the
// bucketing Histogram indexes with math.Frexp instead of a search.
func Log2Bounds(minExp, maxExp int) []float64 {
	b := make([]float64, 0, maxExp-minExp+1)
	for e := minExp; e <= maxExp; e++ {
		b = append(b, math.Ldexp(1, e))
	}
	return b
}

// Metric family types, as exposed in the Prometheus TYPE comment.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance within a family: exactly one of c, fn, h
// is set. fn is a func series, read at scrape time; every gauge is one.
type series struct {
	labels string // rendered label pairs, e.g. `outcome="ok"`, or ""
	c      *Counter
	fn     func() float64
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry is a named collection of instruments, read two ways:
// WritePrometheus for scrapes and exports, and CounterValue. Counter and
// Histogram get or create a series: the same name and labels return the
// same instrument. Lookups take a lock; the returned instruments are
// lock-free thereafter. All methods are safe for concurrent use; a nil
// *Registry hands out nil instruments.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// series returns the (name, labels) series, creating the family and the
// series if needed: a func series when fn is set, else an instrument of
// typ. A name registered with two types, or a func series registered
// beside any other series of the same labels, is a programming error and
// panics, matching the Prometheus client convention.
func (r *Registry) series(name, help, typ, labels string, fn func() float64) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams = append(r.fams, f)
		r.index[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == labels {
			if s.fn != nil || fn != nil {
				panic(fmt.Sprintf("obs: func metric %q{%s} registered twice", name, labels))
			}
			return s
		}
	}
	s := &series{labels: labels, fn: fn}
	if fn == nil {
		switch typ {
		case typeCounter:
			s.c = NewCounter()
		case typeHistogram:
			s.h = &Histogram{}
		}
	}
	f.series = append(f.series, s)
	return s
}

// Counter returns the labeled counter series, creating it if needed. labels
// is a rendered Prometheus label list without braces (`outcome="ok"`), or
// "" for an unlabeled series.
func (r *Registry) Counter(name, help, labels string) *Counter {
	if r == nil {
		return nil
	}
	return r.series(name, help, typeCounter, labels, nil).c
}

// Histogram returns the labeled histogram series, creating it if needed.
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	if r == nil {
		return nil
	}
	return r.series(name, help, typeHistogram, labels, nil).h
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the shape for values that already live elsewhere (queue depth, worker
// busy counters) and should not be double-maintained.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	if r != nil && fn != nil {
		r.series(name, help, typeGauge, labels, fn)
	}
}

// CounterFunc registers a counter whose value is computed at scrape time
// from counts a component keeps itself; fn must never decrease.
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	if r != nil && fn != nil {
		r.series(name, help, typeCounter, labels, func() float64 { return float64(fn()) })
	}
}

// CounterValue returns the summed value of every series of the named
// counter family (0 if absent).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f := r.index[name]
	var ss []*series
	if f != nil && f.typ == typeCounter {
		ss = append(ss, f.series...)
	}
	r.mu.Unlock()
	var total int64
	for _, s := range ss {
		total += s.counterValue()
	}
	return total
}

func (s *series) counterValue() int64 {
	if s.fn != nil {
		return int64(s.fn())
	}
	return s.c.Value()
}

// families copies the family list and each family's series under the
// lock, so readers can evaluate instruments and func series without it.
func (r *Registry) families() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, len(r.fams))
	for i, f := range r.fams {
		out[i] = family{name: f.name, help: f.help, typ: f.typ, series: append([]*series(nil), f.series...)}
	}
	return out
}

// quantiles are the tail percentiles every histogram family also exposes
// as a gauge family named <name>_quantile with a q label.
var quantiles = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {0.999, "0.999"}}

// WritePrometheus writes every family in registration order in the
// Prometheus text exposition format (version 0.0.4): HELP/TYPE comments,
// then one sample line per series; histograms expand to cumulative
// _bucket{le=...} samples plus _sum and _count, and additionally emit a
// <name>_quantile gauge family carrying p50/p90/p99/p999 estimated from
// the buckets, since plain Prometheus histograms defer quantiles to the
// scraper.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.families() {
		writeHeader(&b, f.name, f.help, f.typ)
		for _, s := range f.series {
			switch f.typ {
			case typeCounter:
				writeSample(&b, f.name, s.labels, float64(s.counterValue()))
			case typeGauge:
				writeSample(&b, f.name, s.labels, s.fn())
			case typeHistogram:
				writeHistogram(&b, f.name, s.labels, s.h.Snapshot())
			}
		}
		if f.typ == typeHistogram {
			for _, s := range f.series {
				writeQuantiles(&b, f.name, s.labels, s.h.Snapshot())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

// joinLabels appends extra to base with the comma the format requires.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

func writeHistogram(b *strings.Builder, name string, labels string, s HistogramSnapshot) {
	// Cumulative buckets; empty buckets are elided (the cumulative counts
	// stay monotone without them) except the mandatory +Inf, keeping
	// 64-bucket histograms readable.
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		if s.Counts[i] == 0 {
			continue
		}
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		writeSample(b, name+"_bucket", joinLabels(labels, `le="`+le+`"`), float64(cum))
	}
	writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(s.Count))
	writeSample(b, name+"_sum", labels, s.Sum)
	writeSample(b, name+"_count", labels, float64(s.Count))
}

func writeQuantiles(b *strings.Builder, name, labels string, s HistogramSnapshot) {
	qname := name + "_quantile"
	writeHeader(b, qname, "Bucket-estimated quantiles of "+name+".", typeGauge)
	for _, q := range quantiles {
		writeSample(b, qname, joinLabels(labels, `q="`+q.label+`"`), s.Quantile(q.q))
	}
}
