package sepsp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"sepsp/internal/admission"
	"sepsp/internal/obs"
)

// TelemetryOptions configures NewTelemetry. The zero value (or nil) uses
// the defaults noted on each field.
type TelemetryOptions struct {
	// FlightRecorderSize is how many recent query/wave/failure events the
	// flight recorder retains for /flightrecorder postmortem dumps
	// (default 512, rounded up to a power of two).
	FlightRecorderSize int
	// Trace turns on spans and pprof labels for every index built with
	// this Telemetry in Options.Telemetry: a span per E+ construction
	// level or iteration and per query Bellman-Ford phase, exported by
	// WriteTrace, and phase=/level= labels on CPU profiles. Spans are kept
	// without bound, so a long-running server leaves it off.
	Trace bool
}

// Telemetry is the live serving telemetry registry: lock-free counters,
// latency histograms with phase breakdown (queue wait vs wave compute),
// and a flight recorder of the most recent events. Attach one to a Server
// via ServerOptions.Telemetry and expose it with Handler:
//
//	tel := sepsp.NewTelemetry(nil)
//	srv, _ := sepsp.NewServer(ix, &sepsp.ServerOptions{Telemetry: tel})
//	http.ListenAndServe(":9090", tel.Handler())
//
// The hot-path cost is a few atomic operations per request when attached
// and exactly zero when ServerOptions.Telemetry is nil (the server keeps
// its uninstrumented path). Telemetry is safe to scrape continuously while
// serving. All methods are safe for concurrent use. A Telemetry may be
// shared by several Servers and Managers; per-server gauges are
// distinguished by a server="N" label in attachment order, and /healthz
// reports the first server.
//
// Given to Build as Options.Telemetry, it also records the index's cost
// in the paper's terms: sepsp_prep_work_total, sepsp_prep_rounds_total
// and sepsp_prep_contributions_total per separator-tree level (or per
// iteration of Algorithm 4.3) for the build and every reweight, and
// sepsp_query_relaxations_total per schedule phase kind,
// sepsp_query_phases_total and sepsp_query_cancelled_total for every
// query, counted per source.
//
// Every count a server, manager, breaker, cache or fallback engine keeps
// is read where it is kept, at scrape time: its counter family sums it
// over the attached owners (never detached, so the sums never fall).
// Telemetry itself keeps only the counts no other type does.
type Telemetry struct {
	reg  *obs.Registry
	rec  *obs.Recorder
	sink *obs.Sink // what indexes built with this Telemetry record into

	// degradedQ counts queries served while the index was degraded to the
	// baseline fallback (orthogonal to outcome — a degraded query usually
	// still succeeds).
	degradedQ *obs.Counter
	backoffs  *obs.Counter

	// qAvoided counts the edge relaxations served waves saved by
	// collapsing duplicate sources (one WorkPerSource per duplicate).
	qAvoided *obs.Counter

	// Admission-control families, indexed by admission.Class.
	sheds     [admission.NumClasses]*obs.Counter
	brownouts [admission.NumClasses]*obs.Counter

	queueWait   *obs.Histogram // seconds queued: admission → wave start
	computeTime *obs.Histogram // seconds of shared wave compute
	waveSize    *obs.Histogram // live requests per executed wave
	rebuildTime *obs.Histogram // seconds per reweighting rebuild attempt

	mu       sync.Mutex
	servers  []*Server
	managers []*Manager     // every server's, plus standalone ones given this Telemetry
	indexes  map[*Index]int // every server's and every build's index → id for worker gauge labels
}

// NewTelemetry returns a telemetry registry with every metric family
// pre-registered, so the /metrics shape is stable from the first scrape.
func NewTelemetry(opt *TelemetryOptions) *Telemetry {
	size := 512
	if opt != nil && opt.FlightRecorderSize > 0 {
		size = opt.FlightRecorderSize
	}
	reg := obs.NewRegistry()
	t := &Telemetry{
		reg:     reg,
		rec:     obs.NewRecorder(size),
		sink:    &obs.Sink{Metrics: reg},
		indexes: make(map[*Index]int),
	}
	if opt != nil && opt.Trace {
		t.sink.Trace = obs.NewTracer()
	}
	const qname = "sepsp_server_queries_total"
	const qhelp = "Requests decided by the server, by outcome."
	for out := obs.OutcomeOK; out <= obs.OutcomeBrownout; out++ {
		reg.CounterFunc(qname, qhelp, `outcome="`+out.String()+`"`,
			sumOver(t, &t.servers, func(s *Server) int64 { return s.outcomes[out].Value() }))
	}
	for c := admission.Class(0); c < admission.NumClasses; c++ {
		plbl := `priority="` + c.String() + `"`
		t.sheds[c] = reg.Counter("sepsp_admission_shed_total",
			"Requests shed (refused or evicted) at admission, by priority class.", plbl)
		t.brownouts[c] = reg.Counter("sepsp_admission_brownout_total",
			"Shed requests answered exactly from the baseline fallback engine (brownout), by priority class.", plbl)
	}
	for st := admission.StateClosed; st <= admission.StateHalfOpen; st++ {
		const thelp = "Circuit breaker state transitions, by breaker and target state."
		tolbl := `to="` + st.String() + `"`
		reg.CounterFunc("sepsp_breaker_transitions_total", thelp, `breaker="rebuild",`+tolbl,
			sumOver(t, &t.managers, func(m *Manager) int64 { return m.breaker.Transitions(st) }))
		reg.CounterFunc("sepsp_breaker_transitions_total", thelp, `breaker="fallback",`+tolbl,
			sumOver(t, &t.servers, func(s *Server) int64 { return s.fbBreaker.Transitions(st) }))
	}
	t.degradedQ = reg.Counter("sepsp_server_degraded_queries_total",
		"Queries served while the index was degraded to the baseline fallback engine.", "")
	reg.CounterFunc("sepsp_server_waves_total",
		"Executed coalesced waves.", "",
		sumOver(t, &t.servers, func(s *Server) int64 { return s.waves.Value() }))
	t.backoffs = reg.Counter("sepsp_retry_backoffs_total",
		"Overload retries slept by sepsp.Retry.", "")
	t.qAvoided = reg.Counter("sepsp_query_relaxations_avoided_total",
		"Edge relaxations saved by collapsing duplicate sources in served waves.", "")
	reg.CounterFunc("sepsp_fallback_engaged_total",
		"Degradation causes observed by the baseline fallback engine.", "",
		t.sumFallback(func(f *fallbackEngine) *obs.Counter { return f.engaged }))
	reg.CounterFunc("sepsp_fallback_queries_total",
		"Queries answered by the baseline fallback engine.", "",
		t.sumFallback(func(f *fallbackEngine) *obs.Counter { return f.queries }))
	reg.CounterFunc("sepsp_index_swaps_total",
		"Completed epoch hot-swaps (successful reweighting rebuilds).", "",
		sumOver(t, &t.managers, (*Manager).Swaps))
	reg.CounterFunc("sepsp_index_rebuild_failures_total",
		"Reweighting rebuilds that failed or panicked (old epoch kept serving).", "",
		sumOver(t, &t.managers, (*Manager).RebuildFailures))
	// A disabled cache reads as zero Stats, leaving its families flat.
	reg.CounterFunc("sepsp_cache_hits_total",
		"Queries answered from a cached distance vector (no admission, no wave).", "",
		sumOver(t, &t.servers, func(s *Server) int64 { return s.cache.Stats().Hits }))
	reg.CounterFunc("sepsp_cache_misses_total",
		"Cache misses that became single-flight leaders and computed a fresh vector.", "",
		sumOver(t, &t.servers, func(s *Server) int64 { return s.cache.Stats().Misses }))
	reg.CounterFunc("sepsp_cache_evictions_total",
		"Cached distance vectors evicted for memory-budget room.", "",
		sumOver(t, &t.servers, func(s *Server) int64 { return s.cache.Stats().Evictions }))
	reg.CounterFunc("sepsp_cache_bytes_total",
		"Cumulative bytes of distance vectors admitted to the cache.", "",
		sumOver(t, &t.servers, func(s *Server) int64 { return s.cache.Stats().BytesTotal }))
	reg.CounterFunc("sepsp_cache_singleflight_shared_total",
		"Concurrent requests answered by sharing another request's in-flight computation.", "",
		sumOver(t, &t.servers, func(s *Server) int64 { return s.cache.Stats().Shared }))
	t.rebuildTime = reg.Histogram("sepsp_index_rebuild_duration_seconds",
		"Seconds one reweighting rebuild attempt took, successful or not.", "")
	t.queueWait = reg.Histogram("sepsp_server_queue_wait_seconds",
		"Seconds a request spent queued, from admission to its wave starting.", "")
	t.computeTime = reg.Histogram("sepsp_server_compute_seconds",
		"Seconds of shared compute for the wave that served the request.", "")
	t.waveSize = reg.Histogram("sepsp_server_wave_size",
		"Live requests coalesced into one executed wave.", "")
	return t
}

// sumOver returns a func series reading count summed over the attached
// owners (t.servers or t.managers).
func sumOver[T any](t *Telemetry, owners *[]T, count func(T) int64) func() int64 {
	return func() int64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		var total int64
		for _, o := range *owners {
			total += count(o)
		}
		return total
	}
}

// sumFallback returns a func series summing one counter of the fallback
// engines of the attached managers' and indexes' epochs. Every epoch
// derived from one build shares that build's counter, so each distinct
// counter is read once.
func (t *Telemetry) sumFallback(counter func(*fallbackEngine) *obs.Counter) func() int64 {
	return func() int64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		var total int64
		seen := make(map[*obs.Counter]bool, len(t.managers)+len(t.indexes))
		add := func(ix *Index) {
			if fb := ix.fb; fb != nil && !seen[counter(fb)] {
				seen[counter(fb)] = true
				total += counter(fb).Value()
			}
		}
		for _, m := range t.managers {
			add(m.Index())
		}
		for ix := range t.indexes {
			add(ix)
		}
		return total
	}
}

// engineSink returns the sink an index built with this Telemetry records
// into (nil for a nil Telemetry).
func (t *Telemetry) engineSink() *obs.Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// attachManager adds m to the managers whose counts this registry reads.
// Called once, by the manager's constructor.
func (t *Telemetry) attachManager(m *Manager) {
	t.mu.Lock()
	t.managers = append(t.managers, m)
	t.mu.Unlock()
}

// attach wires a server's scrape-time gauges (and, once per index, the
// executor's per-worker busy gauges) into the registry. Called by
// NewServer, after its Manager attached.
func (t *Telemetry) attach(s *Server) {
	t.mu.Lock()
	sid := len(t.servers)
	t.servers = append(t.servers, s)
	t.mu.Unlock()

	slbl := fmt.Sprintf(`server="%d"`, sid)
	t.reg.GaugeFunc("sepsp_server_queue_depth",
		"Requests currently queued for a wave.", slbl,
		func() float64 { return float64(s.q.Len()) })
	t.reg.GaugeFunc("sepsp_server_max_in_flight",
		"Configured admission hard ceiling (MaxInFlight).", slbl,
		func() float64 { return float64(s.maxInFlight) })
	t.reg.GaugeFunc("sepsp_admission_limit",
		"Admission window currently in force (always MaxInFlight).", slbl,
		func() float64 { return float64(s.maxInFlight) })
	t.reg.GaugeFunc("sepsp_admission_inflight",
		"Requests admitted and not yet decided (queued + being served).", slbl,
		func() float64 { return float64(s.q.Len() + int(s.serving.Load())) })
	t.reg.GaugeFunc("sepsp_server_brownout_active",
		"1 while brownout mode is engaged (low-priority queries answered degraded).", slbl,
		func() float64 {
			if s.brown.Active() {
				return 1
			}
			return 0
		})
	t.reg.GaugeFunc("sepsp_breaker_state",
		"Circuit breaker state: 0 closed, 1 open, 2 half-open.",
		slbl+`,breaker="rebuild"`,
		func() float64 { return float64(s.mgr.BreakerState()) })
	t.reg.GaugeFunc("sepsp_breaker_state",
		"Circuit breaker state: 0 closed, 1 open, 2 half-open.",
		slbl+`,breaker="fallback"`,
		func() float64 {
			if s.fbBreaker == nil {
				return 0
			}
			return float64(s.fbBreaker.State())
		})
	t.reg.GaugeFunc("sepsp_server_degraded",
		"1 while the index serves from the baseline fallback engine.", slbl,
		func() float64 {
			if s.mgr.Index().Degraded() {
				return 1
			}
			return 0
		})
	t.reg.GaugeFunc("sepsp_index_epoch",
		"Generation tag of the epoch currently serving queries.", slbl,
		func() float64 { return float64(s.mgr.Epoch()) })
	t.reg.GaugeFunc("sepsp_index_rebuilding",
		"1 while a reweighting rebuild is in flight.", slbl,
		func() float64 {
			if s.mgr.Rebuilding() {
				return 1
			}
			return 0
		})
	t.reg.GaugeFunc("sepsp_cache_resident_bytes",
		"Bytes of distance vectors resident in the cache right now (0 when disabled).", slbl,
		func() float64 { return float64(s.cache.Stats().Bytes) })
	t.attachIndex(s.mgr.Index())
}

// attachIndex registers ix's executor's per-worker busy gauges, once per
// index, and lets the fallback families read ix's counters. Called by
// attach and by Build for an index built with this Telemetry (nil-safe).
func (t *Telemetry) attachIndex(ix *Index) {
	if t == nil {
		return
	}
	t.mu.Lock()
	_, seen := t.indexes[ix]
	ixid := len(t.indexes)
	if !seen {
		t.indexes[ix] = ixid
	}
	t.mu.Unlock()
	if seen {
		return
	}
	ex := ix.ex
	ilbl := fmt.Sprintf(`index="%d"`, ixid)
	for w := 0; w < ex.P(); w++ {
		w := w
		t.reg.GaugeFunc("sepsp_worker_busy_iterations",
			"Busy iterations executed per PRAM worker slot (resettable).",
			fmt.Sprintf(`%s,worker="%d"`, ilbl, w),
			func() float64 { return float64(ex.WorkerIter(w)) })
	}
	t.reg.GaugeFunc("sepsp_exec_load_imbalance",
		"Max/mean busy iterations across the executor's workers (1 = balanced).", ilbl,
		func() float64 { _, _, imb := ex.LoadStats(); return imb })
}

// recordRebuild records one finished reweighting rebuild attempt: the
// duration histogram and a KindSwap flight-recorder event tagged with the
// new (or, on failure, the retained) epoch.
func (t *Telemetry) recordRebuild(epoch uint64, elapsed time.Duration, swapped bool) {
	t.rebuildTime.Observe(elapsed.Seconds())
	out := obs.OutcomeOK
	if !swapped {
		out = obs.OutcomeError
	}
	t.rec.Record(obs.Event{
		Time:         obs.Now(),
		Kind:         obs.KindSwap,
		Outcome:      out,
		Source:       -1,
		ComputeNanos: elapsed.Nanoseconds(),
		Epoch:        epoch,
	})
}

// recordQuery records one request a wave decided: phase histograms and a
// flight-recorder event (KindQuery on success,
// KindFailure otherwise) tagged with the epoch that served it.
func (t *Telemetry) recordQuery(out obs.Outcome, src int, wave int64, queueNanos, computeNanos int64, batch int, epoch uint64, degraded bool) {
	if degraded {
		t.degradedQ.Inc()
	}
	t.queueWait.Observe(float64(queueNanos) / 1e9)
	if out == obs.OutcomeOK {
		t.computeTime.Observe(float64(computeNanos) / 1e9)
	}
	kind := obs.KindQuery
	if out != obs.OutcomeOK {
		kind = obs.KindFailure
	}
	t.rec.Record(obs.Event{
		Time:         obs.Now(),
		Kind:         kind,
		Outcome:      out,
		Source:       int32(src),
		Wave:         wave,
		Batch:        int32(batch),
		QueueNanos:   queueNanos,
		ComputeNanos: computeNanos,
		Epoch:        epoch,
		Degraded:     degraded,
	})
}

// recordWave records one executed coalesced wave, including the
// relaxations its duplicate-source dedup avoided (0 for waves served
// degraded — the fallback engine runs no schedule).
func (t *Telemetry) recordWave(wave int64, batch int, computeNanos int64, epoch uint64, degraded bool, avoidedWork int64) {
	t.waveSize.Observe(float64(batch))
	t.qAvoided.Add(avoidedWork)
	t.rec.Record(obs.Event{
		Time:         obs.Now(),
		Kind:         obs.KindWave,
		Outcome:      obs.OutcomeOK,
		Source:       -1,
		Wave:         wave,
		Batch:        int32(batch),
		ComputeNanos: computeNanos,
		Epoch:        epoch,
		Degraded:     degraded,
	})
}

// recordCacheHit records one query answered from resident state — a cached
// vector, another request's in-flight computation, or the pair oracle — as
// a KindCacheHit flight-recorder event.
func (t *Telemetry) recordCacheHit(src int, epoch uint64) {
	t.rec.Record(obs.Event{
		Time:    obs.Now(),
		Kind:    obs.KindCacheHit,
		Outcome: obs.OutcomeOK,
		Source:  int32(src),
		Epoch:   epoch,
	})
}

// recordCacheMiss records one cache miss that led this request through the
// admission path as a single-flight leader. Ring event only: the serving
// wave counts the query's outcome when it is decided.
func (t *Telemetry) recordCacheMiss(src int, epoch uint64) {
	t.rec.Record(obs.Event{
		Time:    obs.Now(),
		Kind:    obs.KindCacheMiss,
		Outcome: obs.OutcomeOK,
		Source:  int32(src),
		Epoch:   epoch,
	})
}

// recordShed records a request refused with ErrServerOverloaded — shed at
// admission, evicted, or sharing a shed single-flight leader's refusal; it
// was not served by a wave, so only the per-priority counter and the
// flight recorder see it.
func (t *Telemetry) recordShed(src int, epoch uint64, cls admission.Class) {
	t.sheds[cls].Inc()
	t.rec.Record(obs.Event{
		Time:    obs.Now(),
		Kind:    obs.KindFailure,
		Outcome: obs.OutcomeShed,
		Source:  int32(src),
		Epoch:   epoch,
	})
}

// recordBrownout records a shed request answered exactly from the baseline
// fallback engine instead of being refused.
func (t *Telemetry) recordBrownout(src int, epoch uint64, cls admission.Class) {
	t.brownouts[cls].Inc()
	t.rec.Record(obs.Event{
		Time:     obs.Now(),
		Kind:     obs.KindQuery,
		Outcome:  obs.OutcomeBrownout,
		Source:   int32(src),
		Epoch:    epoch,
		Degraded: true,
	})
}

// recordBackoff counts one overload retry slept by Retry. Nil-safe: Retry
// calls it unconditionally through RetryOptions.
func (t *Telemetry) recordBackoff() {
	if t != nil {
		t.backoffs.Inc()
	}
}

// WriteMetrics writes every metric family in the Prometheus text
// exposition format — the same bytes the /metrics endpoint serves.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	return t.reg.WritePrometheus(w)
}

// WriteTrace writes the spans of the indexes built with this Telemetry as
// Chrome trace_event JSON (chrome://tracing, Perfetto); without
// TelemetryOptions.Trace it writes an empty, still loadable trace.
func (t *Telemetry) WriteTrace(w io.Writer) error {
	return t.sink.Trace.WriteJSON(w)
}

// WriteFlightRecorder writes the flight recorder's current contents as one
// JSON object {"capacity": N, "events": [...]}, events oldest-first — the
// same bytes the /flightrecorder endpoint serves.
func (t *Telemetry) WriteFlightRecorder(w io.Writer) error {
	payload := struct {
		Capacity int         `json:"capacity"`
		Events   []obs.Event `json:"events"`
	}{Capacity: t.rec.Cap(), Events: t.rec.Snapshot()}
	if payload.Events == nil {
		payload.Events = []obs.Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// Handler returns an embeddable http.Handler exposing the serving
// telemetry:
//
//	/metrics         Prometheus text exposition (counters, histograms,
//	                 bucket-estimated p50/p90/p99/p999 quantile gauges)
//	/healthz         ServerHealth of the first attached server as JSON
//	/flightrecorder  recent query/wave/failure events as JSON
//	/debug/pprof/    the standard runtime profiles
//
// Mount it on its own listener (cmd/sepsp serve -listen) or under a route
// of an existing mux.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		t.mu.Lock()
		var srv *Server
		if len(t.servers) > 0 {
			srv = t.servers[0]
		}
		t.mu.Unlock()
		if srv == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"no server attached"}`)
			return
		}
		h := srv.Healthz()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteFlightRecorder(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
