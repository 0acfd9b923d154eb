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
//   - Gauge is one atomic float64 word.
//   - Histogram buckets observations by power-of-two magnitude with one
//     atomic add per observation and estimates quantiles from the bucket
//     counts when read (HistogramSnapshot.Quantile).
//   - Recorder (flight recorder) is a fixed-size per-slot-seqlock ring that
//     keeps the last N query/wave/failure events for postmortems.
//
// One Registry holds them and is read three ways: Prometheus text for live
// scrapes (WritePrometheus), a Snapshot for the offline JSON and text
// exports, and CounterValue.
//
// Everything follows the repository's nil-collector idiom (see
// pram.Stats): a nil *Tracer, *Registry, *Counter, *Gauge, *Histogram,
// *Recorder or *Sink is valid and every method on it is a no-op, so
// instrumented call sites cost one predictable branch when observability
// is off.
package obs

import (
	"context"
	"fmt"
	"runtime/pprof"
)

// Sink bundles the optional observability collectors that configs thread
// through the engine. The zero value and nil are both "everything off".
type Sink struct {
	// Trace collects phase spans for Chrome trace_event export (nil: off).
	Trace *Tracer
	// Metrics is the counter/gauge/histogram registry (nil: off).
	Metrics *Registry
	// PprofLabels enables runtime/pprof label propagation around phase
	// bodies, so CPU profiles can be filtered by phase=/level=. Labels are
	// inherited by the executor's worker goroutines.
	PprofLabels bool
}

// Enabled reports whether any collector is attached; hot paths branch on it
// once and keep the uninstrumented code path when false.
func (s *Sink) Enabled() bool {
	return s != nil && (s.Trace != nil || s.Metrics != nil || s.PprofLabels)
}

// Span starts a tracer span (no-op Span when the sink or tracer is nil).
func (s *Sink) Span(name, cat string, kv ...any) Span {
	if s == nil {
		return Span{}
	}
	return s.Trace.Start(name, cat, kv...)
}

// Counter returns the named registry counter (nil when metrics are off).
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Metrics.Counter(name, "", "")
}

// Gauge returns the named registry gauge (nil when metrics are off).
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.Metrics.Gauge(name, "", "")
}

// Histogram returns the named registry histogram (nil when metrics are off).
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.Metrics.Histogram(name, "", "")
}

// Do runs f, wrapped in a runtime/pprof label set when PprofLabels is on.
// Goroutines spawned inside f (the executor's workers) inherit the labels,
// which is what makes per-phase CPU attribution work.
func (s *Sink) Do(f func(), labels ...string) {
	if s == nil || !s.PprofLabels || len(labels) == 0 {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(labels...), func(context.Context) { f() })
}

// Canonical metric name prefixes shared by the instrumented layers. Per-level
// series append ".level.NNN" via LevelKey; per-kind query series append the
// schedule phase kind.
const (
	MPrepWork       = "prep.work"       // E+ construction work units
	MPrepRounds     = "prep.rounds"     // E+ construction PRAM rounds
	MPrepShortcuts  = "prep.shortcuts"  // E+ pair contributions (pre-dedup)
	MQueryWork      = "query.work"      // relaxations, per phase kind
	MQueryPhases    = "query.phases"    // executed relaxation phases
	MQueryCancelled = "query.cancelled" // queries abandoned on context cancellation
	MExecImbalance  = "exec.imbalance"  // max/mean worker busy iterations
	MExecWorkers    = "exec.workers"    // executor pool size

	// Graceful-degradation (baseline fallback) series.
	MFallbackEngaged = "fallback.engaged" // counter: degradation causes observed
	MFallbackQueries = "fallback.queries" // counter: queries served by the baseline engine
)

// LevelKey returns the canonical key of a per-tree-level metric series,
// zero-padded so text exports sort numerically.
func LevelKey(prefix string, level int) string {
	return fmt.Sprintf("%s.level.%03d", prefix, level)
}

// IterKey returns the canonical key of a per-iteration metric series
// (Algorithm 4.3's simultaneous rounds).
func IterKey(prefix string, iter int) string {
	return fmt.Sprintf("%s.iter.%03d", prefix, iter)
}
