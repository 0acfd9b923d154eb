// Package obs is the observability layer of the separator engine: phase-
// scoped tracing, one metrics model, a flight recorder, and profiling
// hooks, threaded through preprocessing (internal/augment), queries
// (internal/core), the executor (internal/pram), the serving stack (the
// root package's Server and Telemetry, internal/distcache), the CLI
// (cmd/sepsp) and the experiment harness (internal/exp).
//
// The paper's claims are cost-model claims — preprocessing work
// O(max(n, n^{3μ})), span O(log² n), per-source work O(ℓ|E| + |E ∪ E+|) —
// and this package attributes the measured costs to where the model says
// they arise: per separator-tree level during E+ construction, per
// Bellman-Ford phase of the §3.2 bitonic schedule during queries, and per
// executor worker for load balance.
//
// The metric instruments are built for per-query hot-path updates under
// heavy concurrency, and nothing on their write path takes a lock:
//
//   - Counter shards its cells across cache lines so concurrent Inc calls
//     from many goroutines do not serialize on one hot word.
//   - Gauges are func series, read where their value already lives.
//   - Histogram buckets observations by power-of-two magnitude with one
//     atomic add per observation and estimates quantiles from the bucket
//     counts when read (HistogramSnapshot.Quantile).
//   - Recorder (flight recorder) is a fixed-size per-slot-seqlock ring that
//     keeps the last N query/wave/failure events for postmortems.
//
// One Registry holds them and is read two ways: Prometheus text for live
// scrapes and file exports (WritePrometheus), and CounterValue.
//
// Everything follows the repository's nil-collector idiom (see
// pram.Stats): a nil *Tracer, *Registry, *Counter, *Histogram,
// *Recorder or *Sink is valid and every method on it is a no-op, so
// instrumented call sites cost one predictable branch when observability
// is off.
package obs

import (
	"context"
	"runtime/pprof"
)

// Sink bundles the optional observability collectors that configs thread
// through the engine. The zero value and nil are both "everything off".
type Sink struct {
	// Trace collects phase spans for Chrome trace_event export and turns
	// on runtime/pprof labels around phase bodies, so CPU profiles can be
	// filtered by phase=/level= (nil: both off).
	Trace *Tracer
	// Metrics is the registry the engine resolves its counters from when
	// the sink is attached (nil: off).
	Metrics *Registry
}

// Traced reports whether spans and pprof labels are on: the only case in
// which instrumented code builds span arguments and label lists, so
// metrics-only instrumentation stays free of both.
func (s *Sink) Traced() bool { return s != nil && s.Trace != nil }

// Span starts a tracer span (no-op Span when the sink or tracer is nil).
func (s *Sink) Span(name, cat string, kv ...any) Span {
	if s == nil {
		return Span{}
	}
	return s.Trace.Start(name, cat, kv...)
}

// Do runs f, wrapped in a runtime/pprof label set when tracing is on.
// Goroutines spawned inside f (the executor's workers) inherit the labels,
// which is what makes per-phase CPU attribution work.
func (s *Sink) Do(f func(), labels ...string) {
	if !s.Traced() || len(labels) == 0 {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(labels...), func(context.Context) { f() })
}
