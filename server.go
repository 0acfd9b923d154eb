package sepsp

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sepsp/internal/admission"
	"sepsp/internal/distcache"
	"sepsp/internal/faultinject"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
)

// ServerOptions configures a Server. The zero value (or nil) uses the
// defaults noted on each field.
type ServerOptions struct {
	// MaxBatch caps the number of sources coalesced into one
	// SourcesBatched wave (default 16). A wave splits its distinct sources
	// into lane blocks spread across the index's workers, each block one
	// pass over the query schedule, so larger waves keep more workers busy
	// and share each pass among more sources per dispatch but make the
	// wave's members wait for its slowest block.
	MaxBatch int
	// MaxInFlight is the admission window: the most admitted requests that
	// may be queued or being served at once (default 1024). Requests beyond
	// it are shed by priority: they either evict queued lower-priority
	// work, are answered degraded (brownout), or are refused with
	// ErrServerOverloaded.
	MaxInFlight int
	// QueueTimeout bounds how long one admitted request may spend queued
	// plus being served; a request that exceeds it is answered with
	// ErrQueueTimeout (0 = no deadline). Per-request context deadlines
	// compose with it — whichever ends first wins.
	QueueTimeout time.Duration
	// Admission tunes the overload control around the MaxInFlight window:
	// the brownout detector and the circuit breakers around brownout's
	// fallback answers and the Manager's rebuilds. Nil uses the defaults
	// noted on AdmissionOptions.
	Admission *AdmissionOptions
	// CacheBytes, when positive, enables the epoch-aware result cache with
	// the given memory budget: completed SSSP distance vectors are retained
	// by (source, epoch) and repeat queries are answered from the cache
	// without entering the admission path at all, while concurrent misses
	// on one source share a single computed wave lane (single-flight). An
	// index hot-swap (Reweight) invalidates lazily — stale vectors stop
	// matching and are evicted first — and degraded (fallback-served)
	// results are never cached. 0 (the default) disables the cache at zero
	// per-request cost.
	CacheBytes int64
	// Inject, when non-nil, fires the fault-injection harness at the
	// server's wave boundary ("server.wave"). Chaos testing only.
	Inject faultinject.Injector
	// Telemetry, when non-nil, receives live serving telemetry: per-query
	// outcome counters, queue-wait and compute-time histograms, wave sizes,
	// and flight-recorder events, continuously scrapeable while serving
	// (see Telemetry.Handler). Nil keeps the uninstrumented hot path — the
	// per-request cost is exactly one nil check; the always-on outcome and
	// wave counts stay available from Server.Healthz either way.
	Telemetry *Telemetry
	// Logger, when non-nil, receives structured serving logs via log/slog:
	// executed waves at Debug, recovered panics at Error. Nil disables
	// logging at zero cost.
	Logger *slog.Logger
}

// AdmissionOptions tunes the Server's overload control. The zero value (or
// a nil ServerOptions.Admission) uses the defaults noted on each field.
type AdmissionOptions struct {
	// Min must be non-negative.
	//
	// Deprecated: Min has no effect. The admission window is always
	// MaxInFlight and never shrinks below it.
	Min int
	// BrownoutThreshold is the shed-rate EWMA past which the server stops
	// refusing batch/background queries and answers them exactly-but-slower
	// from the baseline fallback engine instead (default 0.1). Negative
	// disables brownout; shed requests are always refused. Brownout also
	// requires the index to have been built with FallbackBaseline —
	// without a fallback engine, shed requests are refused with ErrBrownout.
	BrownoutThreshold float64
	// FallbackBreaker tunes the circuit breaker around brownout's fallback
	// answers, so a panicking fallback engine stops being retried until a
	// probe succeeds.
	FallbackBreaker BreakerOptions
	// RebuildBreaker tunes the circuit breaker the server's Manager wraps
	// around reweighting rebuilds (see ManagerOptions.RebuildBreaker).
	RebuildBreaker BreakerOptions
}

// Server serves concurrent shortest-path requests on one shared Index,
// coalescing requests that arrive while a wave is running into the next
// multi-source SourcesBatched wave. This turns q concurrent single-source
// queries into ⌈q/MaxBatch⌉ waves, each split into lane blocks of
// distinct sources across the index's workers — one dispatch keeps every
// worker busy, one pass over the schedule serves a whole block, and
// duplicate sources in a wave are computed once.
//
// Admission is a fixed window of MaxInFlight requests queued or being
// served. Requests carry a Priority (WithPriority); when the window is
// full, an arriving request sheds the youngest queued request of a lower
// priority class rather than being refused, and past a sustained shed-rate
// threshold the server enters brownout: batch and background queries are
// answered exactly — but slower — by the baseline fallback engine instead
// of being refused. Interactive queries are never browned out.
//
// All methods are safe for concurrent use. Requests carry a
// context.Context: a request cancelled while queued is answered with
// ctx.Err() and never joins a wave; a running wave is abandoned once every
// request in it has gone away. A panic during a wave is recovered by the
// dispatcher and answered as a *PanicError — the server and the shared
// Index keep serving.
//
// The server serves through a Manager: each wave pins the current epoch's
// index for its duration, so Reweight (or Manager.Reweight) can hot-swap a
// reweighted index underneath live traffic with zero downtime — in-flight
// waves drain on the epoch they started on, new waves route to the new
// epoch (see Manager).
//
// Every SSSP and Dist request passes through one fixed sequence of stages:
//
//	validate → cache → admit → enqueue → wave → answer
//
// Each stage either hands the request on or ends it with a terminal
// result — an answer, a shed (refusal or brownout, also after eviction), a
// timeout, a cancellation, a panic, or an error — and the answer stage
// counts every ended request exactly once, in the one counter set that
// Healthz and, when attached, Telemetry read.
type Server struct {
	mgr          *Manager
	n            int // skeleton vertex count; constant across epoch swaps
	maxBatch     int
	maxInFlight  int
	queueTimeout time.Duration
	inj          faultinject.Injector

	// cache is the epoch-aware result cache; nil when disabled, and every
	// operation on a nil cache is a no-op, so the disabled hot path pays
	// one nil check inside the call.
	cache *distcache.Cache

	q           *admission.Queue[*ssspReq]
	brown       *admission.Brownout
	fbBreaker   *admission.Breaker // nil when disabled
	brownoutOff bool
	serving     atomic.Int64 // requests popped from the queue, not yet decided

	wg sync.WaitGroup

	// Always-on counters backing Healthz. outcomes, indexed by
	// obs.Outcome and advanced only by finish, and waves are also what
	// Telemetry's sepsp_server_queries_total and sepsp_server_waves_total
	// families read.
	nRequests atomic.Int64
	nEvicted  atomic.Int64
	outcomes  [obs.NumOutcomes]*obs.Counter
	waves     *obs.Counter

	// Live telemetry and structured logging; both nil by default, and the
	// hot path pays only a nil check for each.
	tel     *Telemetry
	logger  *slog.Logger
	waveSeq atomic.Int64 // wave ids for flight-recorder correlation
}

// ssspReq is one admitted request, shared by its caller (waiting in the
// enqueue stage) and the dispatcher (serving it in the wave stage). claim
// picks which of the two decides it: the dispatcher when it answers first,
// the caller when its context ends first.
type ssspReq struct {
	src     int
	ctx     context.Context
	resc    chan result // 1-buffered; a sender never blocks
	cls     admission.Class
	enq     int64 // admission time, Unix nanos; read only with Telemetry
	claimed atomic.Bool
}

// claim reports whether this call won the right to decide r; exactly one
// call per request does.
func (r *ssspReq) claim() bool { return r.claimed.CompareAndSwap(false, true) }

// result is a request's terminal result: the answer its caller receives,
// plus what the answer stage needs to count it.
type result struct {
	dist []float64
	err  error
	src  int
	cls  admission.Class
	// epoch is the epoch that served the request, so the cache admits
	// under it (a swap may race the wave); degraded marks an answer from
	// the fallback engine, which the cache never admits.
	epoch    uint64
	degraded bool
	// shed marks a request shed at admission: browned out when err is
	// nil, refused otherwise.
	shed bool
	// wave is the serving wave's id (0 when no wave served the request)
	// and batch its live size; queueNanos and computeNanos are the
	// latency phases — admission to wave start, and the wave's compute.
	wave                     int64
	batch                    int
	queueNanos, computeNanos int64
}

// errEvicted answers a queued request displaced by a higher-priority
// arrival. It never escapes the server: the victim's own caller intercepts
// it in the enqueue stage and sheds the request on its own goroutine (so a
// brownout Dijkstra never runs on the evictor's goroutine).
var errEvicted = errors.New("sepsp: internal: evicted from admission queue")

// NewServer starts a serving loop over ix, wrapping it in a new Manager
// (reachable via Manager) so the index can be hot-swapped with Reweight.
// The caller should Close the server when done to release its dispatcher
// goroutine.
func NewServer(ix *Index, opt *ServerOptions) (*Server, error) {
	s, err := newServer(ix, opt)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// newServer builds a Server without starting its dispatcher — split out so
// tests can pre-queue requests and observe one deterministic wave.
func newServer(ix *Index, opt *ServerOptions) (*Server, error) {
	var o ServerOptions
	if opt != nil {
		o = *opt
	}
	var adm AdmissionOptions
	if o.Admission != nil {
		adm = *o.Admission
	}
	if o.MaxBatch < 0 || o.MaxInFlight < 0 || o.QueueTimeout < 0 || o.CacheBytes < 0 {
		return nil, fmt.Errorf("%w: server limits must be non-negative", ErrBadOptions)
	}
	if adm.Min < 0 {
		return nil, fmt.Errorf("%w: admission limits must be non-negative", ErrBadOptions)
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 1024
	}
	// New(MaxBytes ≤ 0) is nil: the cache stays off as a nil receiver.
	// Leader-local errors — the leader's own context or queue deadline
	// ending — make single-flight waiters re-race for leadership instead
	// of inheriting a failure that was never theirs.
	cache := distcache.New(distcache.Config{
		MaxBytes: o.CacheBytes,
		Retryable: func(err error) bool {
			return errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, ErrQueueTimeout)
		},
	})
	s := &Server{
		mgr: newManager(ix, &ManagerOptions{
			Telemetry:      o.Telemetry,
			Logger:         o.Logger,
			Inject:         o.Inject,
			RebuildBreaker: adm.RebuildBreaker,
		}, cache),
		n:            ix.g.N(),
		maxBatch:     o.MaxBatch,
		maxInFlight:  o.MaxInFlight,
		queueTimeout: o.QueueTimeout,
		inj:          o.Inject,
		cache:        cache,
		tel:          o.Telemetry,
		logger:       o.Logger,
		q:            admission.NewQueue[*ssspReq](),
		// A negative threshold still runs the detector; answers are gated off.
		brown:       admission.NewBrownout(admission.BrownoutConfig{Threshold: max(adm.BrownoutThreshold, 0)}),
		fbBreaker:   adm.FallbackBreaker.build(),
		brownoutOff: adm.BrownoutThreshold < 0,
		waves:       obs.NewCounter(),
	}
	for i := range s.outcomes {
		s.outcomes[i] = obs.NewCounter()
	}
	if s.fbBreaker != nil && s.logger != nil {
		s.fbBreaker.OnTransition(func(_, to admission.State) {
			s.logger.Info("fallback breaker transition", "to", to.String())
		})
	}
	if s.tel != nil {
		s.tel.attach(s)
	}
	return s, nil
}

// budget is how many requests may sit in the queue right now: the
// MaxInFlight window minus work already popped for serving.
func (s *Server) budget() int {
	return s.maxInFlight - int(s.serving.Load())
}

// SSSP returns exact distances from src, like Index.SSSPContext, but through the
// server's admission and batching path: the request may wait for the
// in-progress wave and is then coalesced with other pending requests.
//
// Admission is priority-aware (WithPriority; the default is
// PriorityInteractive). When the MaxInFlight window is full the request
// may displace queued lower-priority work; a request that cannot be
// admitted is answered degraded from the fallback engine if brownout is
// engaged (batch/background only), and otherwise refused with
// ErrServerOverloaded (back off and retry — see Retry). It returns
// ErrQueueTimeout when the request outlived ServerOptions.QueueTimeout,
// ErrServerClosed after Close, ctx.Err() if ctx ends first, and a
// *PanicError if the serving wave panicked.
func (s *Server) SSSP(ctx context.Context, src int) ([]float64, error) {
	if err := checkVertex(s.n, src, "source"); err != nil {
		return nil, err
	}
	dist, _, err := s.cached(ctx, src, -1)
	return dist, err
}

// Dist returns the u→v distance. When the index's pair oracle has been
// built it answers directly from the hub labels (no queueing); otherwise a
// cached distance vector for u answers without entering the admission
// window at all — a zero-allocation point read — and only a cache miss
// runs one SSSP request through the batching path and picks out v.
// Both endpoints are validated before any work is enqueued; an
// out-of-range endpoint fails fast with an error wrapping ErrBadOptions
// that names which endpoint (source or destination) is bad.
func (s *Server) Dist(ctx context.Context, u, v int) (float64, error) {
	if err := checkPair(s.n, u, v); err != nil {
		return 0, err
	}
	_, d, err := s.cached(ctx, u, v)
	return d, err
}

// cached is the cache stage. A point read (dst ≥ 0, from Dist) is answered
// by the pair oracle once one is built, else by dst's entry of a resident
// vector without copying it; a vector read (dst < 0) gets a private copy.
// The resident vector is looked up under the epoch read first, so a request
// started after a Reweight swap completes can never see a stale one. A
// miss — or a disabled cache — goes on to admit.
func (s *Server) cached(ctx context.Context, src, dst int) ([]float64, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if dst >= 0 {
		if o := s.mgr.Index().oracle.Load(); o != nil {
			s.finish(ctx, result{src: src, epoch: s.mgr.Epoch()})
			return nil, o.o.Dist(src, dst, nil), nil
		}
	}
	var res result
	if s.cache == nil {
		res = s.admit(ctx, src)
	} else {
		epoch := s.mgr.Epoch()
		hit := result{src: src, epoch: epoch}
		if dst >= 0 {
			if d, ok := s.cache.GetAt(src, epoch, dst); ok {
				s.brown.Note(false) // an answered request is a healthy signal, like any admission
				s.finish(ctx, hit)
				return nil, d, nil
			}
		} else if dist, ok := s.cache.Get(src, epoch); ok {
			s.brown.Note(false)
			s.finish(ctx, hit)
			return dist, 0, nil
		}
		res = s.fill(ctx, src, epoch)
	}
	if res.err != nil || dst < 0 {
		return res.dist, 0, res.err
	}
	return nil, res.dist[dst], nil
}

// fill runs a cache miss single-flight: concurrent misses on one source
// share one wave lane. The flight's leader goes on to admit and is counted
// where its request ends; every other caller is answered — or failed — by
// the flight, or by its own context ending, and is counted here.
func (s *Server) fill(ctx context.Context, src int, epoch uint64) result {
	var lead result
	dist, how, err := s.cache.Do(ctx, src, epoch, func() ([]float64, uint64, bool, error) {
		lead = s.admit(ctx, src)
		return lead.dist, lead.epoch, !lead.degraded, lead.err
	})
	if how == distcache.Computed {
		if s.tel != nil {
			s.tel.recordCacheMiss(src, epoch)
		}
		return lead // Do hands the leader compute's own result back
	}
	return s.finish(ctx, result{dist: dist, err: err, src: src, cls: PriorityOf(ctx).class(), epoch: epoch})
}

// admit is the admit stage: it arms the queue deadline and offers the
// request to the priority queue under the window's budget. A closed server
// ends the request here and a refused one is shed; an admitted one may
// first displace a lower-priority victim, whose own caller then sheds it.
func (s *Server) admit(ctx context.Context, src int) result {
	if s.queueTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.queueTimeout, ErrQueueTimeout)
		defer cancel()
	}
	r := &ssspReq{
		src:  src,
		ctx:  ctx,
		resc: make(chan result, 1),
		cls:  PriorityOf(ctx).class(),
	}
	if s.tel != nil {
		r.enq = time.Now().UnixNano()
	}
	pushed, victim := s.q.Push(r, r.cls, s.budget())
	switch pushed {
	case admission.Closed:
		return s.finish(ctx, result{err: ErrServerClosed, src: src, cls: r.cls, epoch: s.mgr.Epoch()})
	case admission.Rejected:
		return s.shed(r)
	case admission.AdmittedEvicted:
		// The send cannot block: resc is 1-buffered and the victim left the
		// queue, so nothing else will answer it.
		s.nEvicted.Add(1)
		victim.resc <- result{err: errEvicted}
	}
	s.nRequests.Add(1)
	s.brown.Note(false)
	return s.enqueue(r)
}

// enqueue is the enqueue stage: the caller waits for the dispatcher's
// answer. An eviction sends the request back to be shed on this goroutine.
// If the caller's context ends first, the caller decides the request with
// the context's cause (ErrQueueTimeout for the queue deadline) and leaves
// it queued — the dispatcher drops it unanswered — unless the dispatcher
// claimed it first, in which case its answer is already on the way.
func (s *Server) enqueue(r *ssspReq) result {
	select {
	case res := <-r.resc:
		if res.err == errEvicted {
			return s.shed(r)
		}
		return res
	case <-r.ctx.Done():
		if !r.claim() {
			return <-r.resc
		}
		res := result{err: context.Cause(r.ctx), src: r.src, epoch: s.mgr.Epoch()}
		if s.tel != nil {
			res.queueNanos = time.Now().UnixNano() - r.enq
		}
		return s.finish(r.ctx, res)
	}
}

// shed ends a request that could not be (or stay) admitted, on its own
// caller's goroutine: it feeds the brownout detector, then answers the
// request exactly from the fallback engine if brownout is engaged and the
// request is not interactive, and refuses it otherwise.
func (s *Server) shed(r *ssspReq) result {
	s.brown.Note(true)
	res := result{err: ErrServerOverloaded, src: r.src, cls: r.cls, epoch: s.mgr.Epoch(), degraded: true, shed: true}
	if r.cls != admission.Interactive && !s.brownoutOff && s.brown.Active() {
		var err error
		res.dist, res.epoch, err = s.brownoutAnswer(r.ctx, r.src)
		switch {
		case err == nil:
			res.err = nil
		case r.ctx.Err() != nil:
			res.err = context.Cause(r.ctx)
		default:
			if s.logger != nil {
				s.logger.Debug("brownout answer unavailable", "src", r.src, "priority", r.cls.String(), "err", err)
			}
			res.err = fmt.Errorf("%w: %w", ErrBrownout, ErrServerOverloaded)
		}
	}
	return s.finish(r.ctx, res)
}

// brownoutAnswer serves one shed query exactly from the baseline fallback
// engine, on the requester's goroutine, under the fallback circuit breaker
// and a panic guard, and reports the epoch that answered it. The wave
// pipeline is untouched.
func (s *Server) brownoutAnswer(ctx context.Context, src int) ([]float64, uint64, error) {
	ix, epoch, release := s.mgr.Acquire()
	defer release()
	if ix.fb == nil {
		return nil, epoch, ErrDegraded // no fallback engine to answer from
	}
	if s.fbBreaker != nil && !s.fbBreaker.Allow() {
		return nil, epoch, ErrBreakerOpen
	}
	// The guard makes a panicking fallback engine feed the breaker instead
	// of killing the requester's goroutine.
	dist, err := runGuarded("brownout", func() ([]float64, error) {
		return ix.fb.ssspCtx(ctx, ix.fb.g, src)
	})
	if s.fbBreaker != nil {
		switch {
		case err == nil:
			s.fbBreaker.Success()
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			s.fbBreaker.Cancel() // the caller went away mid-answer: not the engine's fault
		default:
			s.fbBreaker.Failure()
		}
	}
	return dist, epoch, err
}

// finish is the answer stage: the one place an ended request is counted.
// It advances the request's outcome counter and calls Telemetry's recorder
// for its outcome, then hands res back.
func (s *Server) finish(ctx context.Context, res result) result {
	out := outcomeOf(ctx, res)
	s.outcomes[out].Inc()
	if s.tel == nil {
		return res
	}
	switch {
	case out == obs.OutcomeShed:
		s.tel.recordShed(res.src, res.epoch, res.cls)
	case out == obs.OutcomeBrownout:
		s.tel.recordBrownout(res.src, res.epoch, res.cls)
	case out == obs.OutcomeOK && res.wave == 0:
		// Answered from resident state: a cached vector, a shared flight,
		// or the pair oracle.
		s.tel.recordCacheHit(res.src, res.epoch)
	default:
		s.tel.recordQuery(out, res.src, res.wave, res.queueNanos, res.computeNanos, res.batch, res.epoch, res.degraded)
	}
	return res
}

// outcomeOf classifies an ended request; ctx is the request's own context.
func outcomeOf(ctx context.Context, res result) obs.Outcome {
	switch {
	case res.err == nil && res.shed:
		return obs.OutcomeBrownout
	case res.err == nil:
		return obs.OutcomeOK
	case res.shed || errors.Is(res.err, ErrServerOverloaded):
		return obs.OutcomeShed
	case isPanic(res.err):
		return obs.OutcomePanic
	case errors.Is(res.err, ErrQueueTimeout):
		return obs.OutcomeTimeout
	case ctx.Err() != nil:
		return obs.OutcomeCancelled
	}
	return obs.OutcomeError
}

// isPanic reports whether err carries a *PanicError. It is split out so
// the errors.As target is allocated only on this rare path.
func isPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// Manager returns the epoch lifecycle manager the server serves through.
func (s *Server) Manager() *Manager { return s.mgr }

// Reweight hot-swaps the serving index for one rebuilt against g — the
// same undirected skeleton with new weights — with zero downtime; it is
// shorthand for Manager().Reweight. See Manager.Reweight for the
// single-flight, cancellation, and failure-isolation semantics.
func (s *Server) Reweight(ctx context.Context, g *Graph) (uint64, error) {
	return s.mgr.Reweight(ctx, g)
}

// ServerHealth is a point-in-time snapshot of a Server's serving state, for
// health endpoints and load-shedding decisions. Counters are cumulative
// since NewServer.
//
// The JSON field names are a serialization contract: the /healthz endpoint
// (Telemetry.Handler) serves this struct, external probes match on the
// snake_case keys, and a golden test pins them — extend the struct, never
// rename a tag.
type ServerHealth struct {
	// Closed reports whether Close has been called.
	Closed bool `json:"closed"`
	// Degraded reports whether the underlying Index serves from the
	// baseline fallback engine (see Index.Degraded).
	Degraded bool `json:"degraded"`
	// Epoch is the generation tag of the index currently serving queries;
	// it advances by one on every completed hot-swap (see Manager).
	Epoch uint64 `json:"epoch"`
	// Rebuilding reports whether a reweighting rebuild is in flight.
	Rebuilding bool `json:"rebuilding"`
	// QueueDepth is the number of requests currently queued, and
	// MaxInFlight/MaxBatch the configured limits.
	QueueDepth  int `json:"queue_depth"`
	MaxInFlight int `json:"max_in_flight"`
	MaxBatch    int `json:"max_batch"`
	// Requests counts admitted requests. Rejected, Cancelled, TimedOut,
	// Panics and Brownouts count ended requests by outcome, at the same
	// point as the matching sepsp_server_queries_total series: Rejected
	// those refused with ErrServerOverloaded, Cancelled and TimedOut those
	// that ended with their context's cancellation or ErrQueueTimeout, and
	// Panics those answered with a *PanicError.
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
	TimedOut  int64 `json:"timed_out"`
	// Waves counts successfully executed coalesced waves.
	Waves  int64 `json:"waves"`
	Panics int64 `json:"panics"`
	// EffectiveLimit is the admission window in force, always MaxInFlight
	// (kept because the JSON key is part of /healthz); Brownout reports
	// whether brownout mode is engaged; Brownouts counts shed queries
	// answered degraded from the fallback engine; Evicted counts queued
	// requests displaced by higher-priority arrivals.
	EffectiveLimit int   `json:"effective_limit"`
	Brownout       bool  `json:"brownout"`
	Brownouts      int64 `json:"brownouts"`
	Evicted        int64 `json:"evicted"`
	// CacheHits counts queries answered from a cached distance vector;
	// CacheMisses counts single-flight leaders that computed fresh;
	// CacheShared counts requests answered by sharing another request's
	// in-flight computation; CacheEvictions counts vectors evicted for
	// budget room; CacheBytes is the resident cache size right now. All
	// stay zero when the cache is disabled (ServerOptions.CacheBytes = 0).
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheShared    int64 `json:"cache_shared"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheBytes     int64 `json:"cache_bytes"`
}

// String renders the snapshot as one "key=value" line for logs and CLIs.
func (h ServerHealth) String() string {
	return fmt.Sprintf(
		"closed=%v degraded=%v epoch=%d rebuilding=%v queue=%d/%d maxBatch=%d requests=%d rejected=%d cancelled=%d timedout=%d waves=%d panics=%d limit=%d brownout=%v brownouts=%d evicted=%d cacheHits=%d cacheMisses=%d cacheShared=%d cacheEvictions=%d cacheBytes=%d",
		h.Closed, h.Degraded, h.Epoch, h.Rebuilding, h.QueueDepth, h.MaxInFlight, h.MaxBatch,
		h.Requests, h.Rejected, h.Cancelled, h.TimedOut, h.Waves, h.Panics,
		h.EffectiveLimit, h.Brownout, h.Brownouts, h.Evicted,
		h.CacheHits, h.CacheMisses, h.CacheShared, h.CacheEvictions, h.CacheBytes)
}

// Healthz returns a consistent-enough snapshot of the server's state; safe
// to call concurrently with serving, at any time (including after Close).
func (s *Server) Healthz() ServerHealth {
	cst := s.cache.Stats() // zero-valued when the cache is disabled
	return ServerHealth{
		Closed:         s.q.IsClosed(),
		Degraded:       s.mgr.Index().Degraded(),
		Epoch:          s.mgr.Epoch(),
		Rebuilding:     s.mgr.Rebuilding(),
		QueueDepth:     s.q.Len(),
		MaxInFlight:    s.maxInFlight,
		MaxBatch:       s.maxBatch,
		Requests:       s.nRequests.Load(),
		Rejected:       s.outcomes[obs.OutcomeShed].Value(),
		Cancelled:      s.outcomes[obs.OutcomeCancelled].Value(),
		TimedOut:       s.outcomes[obs.OutcomeTimeout].Value(),
		Waves:          s.waves.Value(),
		Panics:         s.outcomes[obs.OutcomePanic].Value(),
		EffectiveLimit: s.maxInFlight,
		Brownout:       s.brown.Active(),
		Brownouts:      s.outcomes[obs.OutcomeBrownout].Value(),
		Evicted:        s.nEvicted.Load(),
		CacheHits:      cst.Hits,
		CacheMisses:    cst.Misses,
		CacheShared:    cst.Shared,
		CacheEvictions: cst.Evictions,
		CacheBytes:     cst.Bytes,
	}
}

// Close stops admitting requests, serves everything already queued, waits
// for the dispatcher to finish, and returns. Safe to call multiple times.
func (s *Server) Close() error {
	s.q.Close()
	s.wg.Wait()
	return nil
}

// run is the dispatcher loop: block for one request, sweep up whatever
// else is already queued (up to MaxBatch, in priority order), serve the
// wave, repeat. Requests arriving while a wave runs accumulate in the queue
// and form the next wave — batching is adaptive: empty-queue latency is one
// solo query, and under load waves grow toward MaxBatch.
func (s *Server) run() {
	defer s.wg.Done()
	batch := make([]*ssspReq, 0, s.maxBatch)
	srcs := make([]int, 0, s.maxBatch)
	for {
		r, _, ok := s.q.PopWait()
		if !ok {
			return
		}
		batch = s.gather(append(batch[:0], r))
		s.serving.Add(int64(len(batch)))
		s.serveWave(batch, srcs)
		s.serving.Add(-int64(len(batch)))
	}
}

// gather drains queued requests into batch, up to maxBatch. When the queue
// runs dry it yields the processor a couple of times before sealing the
// wave: on a single-P runtime the dispatcher always wins the race back to
// the queue, so without the yield concurrent clients would be served in
// solo waves and never coalesce. The yields are no-ops when nothing else is
// runnable.
func (s *Server) gather(batch []*ssspReq) []*ssspReq {
	for yields := 0; len(batch) < s.maxBatch; {
		r, _, ok := s.q.TryPop()
		if !ok {
			if yields >= 2 {
				return batch
			}
			yields++
			runtime.Gosched()
			continue
		}
		batch = append(batch, r)
	}
	return batch
}

// serveWave is the wave stage for one coalesced batch; srcs is the
// dispatcher's scratch buffer for the wave's sources. Members whose context
// already ended are answered with its cause and never join the wave; the
// rest share one SourcesBatched wave, on the epoch-pinned index, under a
// merged context that lives as long as any member does. The wave runs
// under a panic guard — a panic answers every member with a *PanicError
// and the dispatcher moves on to the next wave — and so does its
// bookkeeping: a panic there (a Logger's handler, say) answers every
// member not yet answered.
//
// The wave pins the serving epoch for its whole duration: the epoch's
// index cannot be released by a concurrent Reweight swap until the wave's
// release runs, and every request in one wave is served by — and, with
// Telemetry, attributed to — exactly one epoch.
//
// Without Telemetry or a Logger this function reads no clock.
func (s *Server) serveWave(batch []*ssspReq, srcs []int) {
	ix, epoch, release := s.mgr.Acquire()
	defer release()
	w := result{epoch: epoch, degraded: ix.Degraded()} // also gates cache admission of the rows
	instr := s.tel != nil || s.logger != nil
	var start int64 // wave start, Unix nanos; read only when instrumented
	if instr {
		start = time.Now().UnixNano()
	}
	defer func() {
		if r := recover(); r != nil {
			w.err = newPanicError("serve", r)
			if s.logger != nil {
				s.logger.Error("wave delivery panicked", "batch", len(batch), "err", w.err)
			}
			for _, req := range batch {
				s.answer(req, w, start)
			}
		}
	}()
	// Dead members are answered in place, so batch still holds every live
	// one for the panic path above.
	alive, srcs := batch[:0], srcs[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			s.answer(r, w, start)
			continue
		}
		alive, srcs = append(alive, r), append(srcs, r.src)
	}
	if len(alive) == 0 {
		return
	}
	w.wave, w.batch = s.waveSeq.Add(1), len(alive)
	ctx, detach := waveContext(alive)
	defer detach() // idempotent; guards the early-panic path against watcher leaks
	var wst *pram.Stats
	if s.tel != nil {
		wst = &pram.Stats{} // collect the wave's dedup telemetry
	}
	// The guard turns an injected or organic panic into a *PanicError
	// instead of killing the dispatcher (the Index's own FallbackPolicy, if
	// any, has already had its chance to absorb it).
	rows, err := runGuarded("serve", func() ([][]float64, error) {
		if s.inj != nil {
			s.inj.Fire(faultinject.SiteServerWave)
		}
		return ix.sourcesBatchedStats(ctx, srcs, wst)
	})
	if instr {
		w.computeNanos = time.Now().UnixNano() - start
	}
	detach()
	w.err = err
	if s.logger != nil && isPanic(err) {
		s.logger.Error("wave panicked", "wave", w.wave, "size", len(alive), "err", err)
	}
	if err == nil {
		s.waves.Inc()
		if s.tel != nil {
			s.tel.recordWave(w.wave, len(alive), w.computeNanos, epoch, w.degraded, wst.SkippedWork())
		}
		if s.logger != nil {
			s.logger.Debug("wave served", "wave", w.wave, "size", len(alive), "epoch", epoch, "compute", time.Duration(w.computeNanos))
		}
	}
	for i, r := range alive {
		res := w
		if err == nil {
			res.dist = rows[i]
		}
		s.answer(r, res, start)
	}
}

// answer is the dispatcher's side of the answer stage: unless r's caller
// has already decided r, it counts and delivers res — or, once r's context
// has ended, the context's cause, which is then what the caller sees
// either way. start is the wave's start time, for the queue-wait phase.
func (s *Server) answer(r *ssspReq, res result, start int64) {
	if !r.claim() {
		return
	}
	if r.ctx.Err() != nil {
		res.dist, res.err = nil, context.Cause(r.ctx)
	}
	res.src, res.queueNanos = r.src, start-r.enq
	defer func() { r.resc <- res }() // delivered even if counting panics
	s.finish(r.ctx, res)
}

// waveContext returns a context that is cancelled once EVERY member's
// context has ended — one abandoned request does not abort the shared wave,
// but a wave nobody is waiting for stops within one phase. detach must be
// called when the wave finishes to drop the AfterFunc watchers on the
// member contexts; it is safe to call more than once, so callers can both
// detach eagerly (to release watchers before delivery) and defer it (so a
// delivery panic cannot leak them).
func waveContext(live []*ssspReq) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	remaining := new(atomic.Int64)
	remaining.Store(int64(len(live)))
	stops := make([]func() bool, 0, len(live))
	for _, r := range live {
		stops = append(stops, context.AfterFunc(r.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}
