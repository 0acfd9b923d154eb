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
	"sepsp/internal/obs/live"
	"sepsp/internal/pram"
)

// ServerOptions configures a Server. The zero value (or nil) uses the
// defaults noted on each field.
type ServerOptions struct {
	// MaxBatch caps the number of sources coalesced into one
	// SourcesBatched wave (default 16). A wave answers its distinct sources
	// as pruned single-source queries spread across the index's workers, so
	// larger waves keep more workers busy per dispatch but make the wave's
	// members wait for its slowest source.
	MaxBatch int
	// MaxInFlight is the hard ceiling on admitted requests queued or being
	// served (default 1024). The adaptive limiter (see Admission) moves the
	// effective limit below this ceiling, never above it. Requests beyond
	// the effective limit are shed by priority: they either evict queued
	// lower-priority work, are answered degraded (brownout), or are refused
	// with ErrServerOverloaded.
	MaxInFlight int
	// QueueTimeout bounds how long one admitted request may spend queued
	// plus being served; a request that exceeds it is answered with
	// ErrQueueTimeout (0 = no deadline). Per-request context deadlines
	// compose with it — whichever ends first wins.
	QueueTimeout time.Duration
	// Admission tunes the adaptive overload control: the gradient
	// concurrency limiter, the brownout detector, and the circuit breaker
	// around brownout's fallback answers. Nil uses the defaults noted on
	// AdmissionOptions — adaptive limiting is always on, starting wide open
	// at MaxInFlight.
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
	// Observer, when non-nil, receives the server's serving metrics in its
	// registry: queue depth ("server.queue.depth" gauge), wave sizes
	// ("server.wave.size" histogram), and admitted / refused / cancelled /
	// timed-out request, wave, and recovered-panic counters. It may be the
	// same Observer the Index was built with.
	Observer *Observer
	// Inject, when non-nil, fires the fault-injection harness at the
	// server's wave boundary ("server.wave"). Chaos testing only.
	Inject faultinject.Injector
	// Telemetry, when non-nil, receives live serving telemetry: per-query
	// outcome counters, queue-wait and compute-time histograms, wave sizes,
	// and flight-recorder events, continuously scrapeable while serving
	// (see Telemetry.Handler). Nil keeps the uninstrumented hot path — the
	// per-request cost is exactly one nil check.
	Telemetry *Telemetry
	// Logger, when non-nil, receives structured serving logs via log/slog:
	// executed waves at Debug, recovered panics at Error. Nil disables
	// logging at zero cost.
	Logger *slog.Logger
}

// AdmissionOptions tunes the Server's adaptive overload control. The zero
// value (or a nil ServerOptions.Admission) uses the defaults noted on each
// field.
type AdmissionOptions struct {
	// Initial is the starting effective limit (default MaxInFlight: begin
	// wide open and let measured latency narrow the window).
	Initial int
	// Min is the floor the adaptive limit cannot shrink below (default 2,
	// capped at MaxInFlight). A positive floor keeps a trickle of admission
	// alive so the limiter can observe recovery.
	Min int
	// Tolerance is how much recent latency may exceed the no-load baseline
	// before the limiter shrinks the window (default 1.5).
	Tolerance float64
	// DropBackoff is the multiplicative decrease applied to the limit per
	// shed or eviction, in (0, 1) (default 0.95).
	DropBackoff float64
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
// queries into ⌈q/MaxBatch⌉ waves, each a deduplicated fan-out of pruned
// single-source queries across the index's workers — one dispatch keeps
// every worker busy, and duplicate sources in a wave are computed once.
//
// Admission is adaptive: a gradient concurrency limiter watches measured
// wave latency against a smoothed no-load baseline and moves the effective
// in-flight limit between AdmissionOptions.Min and the MaxInFlight hard
// ceiling. Requests carry a Priority (WithPriority); when the effective
// limit is exhausted, an arriving request sheds the youngest queued request
// of a lower priority class rather than being refused, and past a sustained
// shed-rate threshold the server enters brownout: batch and background
// queries are answered exactly — but slower — by the baseline fallback
// engine instead of being refused. Interactive queries are never browned
// out.
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

	q           *admission.Queue[ssspReq]
	lim         *admission.Limiter
	brown       *admission.Brownout
	fbBreaker   *admission.Breaker // nil when disabled
	brownoutOff bool
	serving     atomic.Int64 // requests popped from the queue, not yet decided

	wg sync.WaitGroup

	// Always-on counters backing Healthz (the obs instruments below are
	// nil no-ops without an Observer).
	nRequests  atomic.Int64
	nRejected  atomic.Int64
	nCancelled atomic.Int64
	nTimedOut  atomic.Int64
	nWaves     atomic.Int64
	nPanics    atomic.Int64
	nBrownouts atomic.Int64
	nEvicted   atomic.Int64

	// Metric instruments; nil (no-op) without an Observer.
	depth     *obs.Gauge
	waveSize  *obs.Histogram
	waves     *obs.Counter
	requests  *obs.Counter
	rejected  *obs.Counter
	cancelled *obs.Counter
	timedout  *obs.Counter
	panics    *obs.Counter

	// Live telemetry and structured logging; both nil by default, and the
	// hot path pays only a nil check for each.
	tel     *Telemetry
	logger  *slog.Logger
	waveSeq atomic.Int64 // wave ids for flight-recorder correlation
}

type ssspReq struct {
	src  int
	ctx  context.Context
	resc chan ssspResp // buffered; the dispatcher never blocks on delivery
	cls  admission.Class
	enq  int64 // admission time, Unix nanos (0 only for test-injected reqs)
}

type ssspResp struct {
	dist []float64
	err  error
	// epoch and degraded describe the wave that produced dist, so the
	// cache can admit under the epoch that actually served the request
	// (a swap may race the wave) and never admit fallback-served results.
	epoch    uint64
	degraded bool
}

// errEvicted answers a queued request displaced by a higher-priority
// arrival. It never escapes the server: the victim's own SSSP call
// intercepts it and re-enters the shed/brownout path on its own goroutine
// (so a brownout Dijkstra never runs on the evictor's goroutine).
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
	maxBatch, maxInFlight := 16, 1024
	var queueTimeout time.Duration
	var inj faultinject.Injector
	var reg *obs.Registry
	var tel *Telemetry
	var logger *slog.Logger
	var admOpt AdmissionOptions
	var cacheBytes int64
	if opt != nil {
		if opt.MaxBatch < 0 || opt.MaxInFlight < 0 || opt.QueueTimeout < 0 || opt.CacheBytes < 0 {
			return nil, fmt.Errorf("%w: server limits must be non-negative", ErrBadOptions)
		}
		cacheBytes = opt.CacheBytes
		if opt.MaxBatch > 0 {
			maxBatch = opt.MaxBatch
		}
		if opt.MaxInFlight > 0 {
			maxInFlight = opt.MaxInFlight
		}
		queueTimeout = opt.QueueTimeout
		inj = opt.Inject
		if opt.Observer != nil {
			reg = opt.Observer.sink.Metrics
		}
		tel = opt.Telemetry
		logger = opt.Logger
		if opt.Admission != nil {
			admOpt = *opt.Admission
		}
	}
	if admOpt.Initial < 0 || admOpt.Min < 0 {
		return nil, fmt.Errorf("%w: admission limits must be non-negative", ErrBadOptions)
	}
	mgrOpt := &ManagerOptions{
		Telemetry:      tel,
		Logger:         logger,
		Inject:         inj,
		RebuildBreaker: admOpt.RebuildBreaker,
	}
	brownCfg := admission.BrownoutConfig{Threshold: admOpt.BrownoutThreshold}
	if admOpt.BrownoutThreshold < 0 {
		brownCfg.Threshold = 0 // detector still runs; answers are gated off
	}
	s := &Server{
		mgr:          NewManager(ix, mgrOpt),
		n:            ix.g.N(),
		maxBatch:     maxBatch,
		maxInFlight:  maxInFlight,
		queueTimeout: queueTimeout,
		inj:          inj,
		tel:          tel,
		logger:       logger,
		q:            admission.NewQueue[ssspReq](),
		lim: admission.NewLimiter(admission.LimiterConfig{
			Initial:     admOpt.Initial,
			Min:         admOpt.Min,
			Max:         maxInFlight,
			Tolerance:   admOpt.Tolerance,
			DropBackoff: admOpt.DropBackoff,
		}),
		brown:       admission.NewBrownout(brownCfg),
		fbBreaker:   admOpt.FallbackBreaker.build(),
		brownoutOff: admOpt.BrownoutThreshold < 0,
		depth:       reg.Gauge(obs.MServerQueueDepth),
		waveSize:    reg.Histogram(obs.MServerWaveSize),
		waves:       reg.Counter(obs.MServerWaves),
		requests:    reg.Counter(obs.MServerRequests),
		rejected:    reg.Counter(obs.MServerRejected),
		cancelled:   reg.Counter(obs.MServerCancelled),
		timedout:    reg.Counter(obs.MServerTimedOut),
		panics:      reg.Counter(obs.MServerPanics),
	}
	// New(MaxBytes ≤ 0) is nil: the cache stays off as a nil receiver.
	// Leader-local errors — the leader's own context or queue deadline
	// ending — make single-flight waiters re-race for leadership instead
	// of inheriting a failure that was never theirs.
	s.cache = distcache.New(distcache.Config{
		MaxBytes:    cacheBytes,
		VectorBytes: int64(s.n) * 8,
		Retryable: func(err error) bool {
			return errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, ErrQueueTimeout)
		},
	})
	s.mgr.setCache(s.cache)
	if s.fbBreaker != nil {
		fb := s.fbBreaker
		fb.OnTransition(func(_, to admission.State) {
			if s.tel != nil {
				s.tel.recordBreakerTransition("fallback", to)
			}
			if s.logger != nil {
				s.logger.Info("fallback breaker transition", "to", to.String())
			}
		})
	}
	if tel != nil {
		tel.attach(s)
	}
	return s, nil
}

// effectiveLimit is the admission window currently in force: the adaptive
// limit capped by the MaxInFlight hard ceiling.
func (s *Server) effectiveLimit() int {
	lim := s.lim.Limit()
	if lim > s.maxInFlight {
		lim = s.maxInFlight
	}
	return lim
}

// budget is how many requests may sit in the queue right now: the effective
// limit minus work already popped for serving. It can go negative under a
// shrinking limit; the queue treats that as zero.
func (s *Server) budget() int {
	return s.effectiveLimit() - int(s.serving.Load())
}

// SSSP returns exact distances from src, like Index.SSSP, but through the
// server's admission and batching path: the request may wait for the
// in-progress wave and is then coalesced with other pending requests.
//
// Admission is priority-aware (WithPriority; the default is
// PriorityInteractive). When the adaptive limit is exhausted the request
// may displace queued lower-priority work; a request that cannot be
// admitted is answered degraded from the fallback engine if brownout is
// engaged (batch/background only), and otherwise refused with
// ErrServerOverloaded (back off and retry — see Retry). It returns
// ErrQueueTimeout when the request outlived ServerOptions.QueueTimeout,
// ErrServerClosed after Close, ctx.Err() if ctx ends first, and a
// *PanicError if the serving wave panicked.
func (s *Server) SSSP(ctx context.Context, src int) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.checkVertex(src); err != nil {
		return nil, err
	}
	if s.cache == nil {
		dist, _, _, err := s.ssspAdmit(ctx, src)
		return dist, err
	}
	// The epoch is read before the lookup: a request started after a
	// Reweight swap completes always keys on the new epoch, so a stale
	// vector can never answer it. The hit path runs before any admission
	// work — no limiter, no queue, no context wrapping.
	epoch := s.mgr.Epoch()
	if dist, ok := s.cache.Get(src, epoch); ok {
		s.brown.Note(false) // an answered request is a healthy-signal, like any admission
		if s.tel != nil {
			s.tel.recordCacheHit(src, epoch)
		}
		return dist, nil
	}
	dist, how, err := s.cache.Do(ctx, src, epoch, func() ([]float64, uint64, bool, error) {
		d, served, degraded, cerr := s.ssspAdmit(ctx, src)
		return d, served, !degraded, cerr
	})
	if s.tel != nil {
		switch {
		case how == distcache.Computed:
			s.tel.recordCacheMiss(src, epoch)
		case err == nil: // Hit (Do re-checked) or Shared success
			s.tel.recordCacheHit(src, epoch)
		}
	}
	return dist, err
}

// ssspAdmit is the uncached serving path: admission, queueing, and the
// coalesced wave. It reports the epoch that served the request and whether
// the answer came from a degraded (fallback) engine, so the cache layer
// can decide admission.
func (s *Server) ssspAdmit(ctx context.Context, src int) ([]float64, uint64, bool, error) {
	if s.queueTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.queueTimeout, ErrQueueTimeout)
		defer cancel()
	}
	cls := PriorityOf(ctx).class()
	r := ssspReq{
		src:  src,
		ctx:  ctx,
		resc: make(chan ssspResp, 1),
		cls:  cls,
		enq:  time.Now().UnixNano(),
	}
	res, victim := s.q.Push(r, cls, s.budget())
	switch res {
	case admission.Closed:
		return nil, 0, false, ErrServerClosed
	case admission.Rejected:
		dist, err := s.shed(ctx, src, cls)
		return dist, 0, true, err // brownout answers are degraded: never cached
	case admission.AdmittedEvicted:
		// The victim's own SSSP call re-enters the shed path when it sees
		// errEvicted; the send cannot block (resc is 1-buffered and the
		// victim left the queue, so nobody else will answer it).
		s.nEvicted.Add(1)
		victim.resc <- ssspResp{err: errEvicted}
	}
	s.nRequests.Add(1)
	s.requests.Inc()
	s.depth.Set(float64(s.q.Len()))
	s.brown.Note(false)
	select {
	case resp := <-r.resc:
		if resp.err == errEvicted {
			dist, err := s.shed(ctx, src, cls)
			return dist, 0, true, err
		}
		return resp.dist, resp.epoch, resp.degraded, resp.err
	case <-ctx.Done():
		// The request stays in the queue; the dispatcher sees the dead
		// context and discards (and counts) it without serving. Cause
		// distinguishes ErrQueueTimeout from the caller's own ctx ending.
		return nil, 0, false, context.Cause(ctx)
	}
}

// shed decides a request that could not be (or stay) admitted: feed the
// limiter and brownout detector, then either answer it degraded from the
// fallback engine (brownout engaged, non-interactive priority) or refuse
// it. Runs on the requester's own goroutine.
func (s *Server) shed(ctx context.Context, src int, cls admission.Class) ([]float64, error) {
	s.lim.OnDrop()
	s.brown.Note(true)
	if cls != admission.Interactive && !s.brownoutOff && s.brown.Active() {
		dist, err := s.brownoutAnswer(ctx, src, cls)
		if err == nil {
			return dist, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			s.countShed(src, cls)
			return nil, context.Cause(ctx)
		}
		if s.logger != nil {
			s.logger.Debug("brownout answer unavailable", "src", src, "priority", cls.String(), "err", err)
		}
		s.countShed(src, cls)
		return nil, fmt.Errorf("%w: %w", ErrBrownout, ErrServerOverloaded)
	}
	s.countShed(src, cls)
	return nil, ErrServerOverloaded
}

func (s *Server) countShed(src int, cls admission.Class) {
	s.nRejected.Add(1)
	s.rejected.Inc()
	if s.tel != nil {
		s.tel.recordShed(src, s.mgr.Epoch(), cls)
	}
}

// brownoutAnswer serves one shed query exactly from the baseline fallback
// engine, on the requester's goroutine, under the fallback circuit breaker
// and a panic guard. The wave pipeline is untouched.
func (s *Server) brownoutAnswer(ctx context.Context, src int, cls admission.Class) ([]float64, error) {
	ix, epoch, release := s.mgr.Acquire()
	defer release()
	if ix.fb == nil {
		return nil, ErrDegraded // no fallback engine to answer from
	}
	if s.fbBreaker != nil && !s.fbBreaker.Allow() {
		return nil, ErrBreakerOpen
	}
	dist, err := s.runBrownout(ctx, ix, src)
	if err != nil {
		if s.fbBreaker != nil {
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				// The caller went away mid-answer: not the engine's fault.
				s.fbBreaker.Cancel()
			} else {
				s.fbBreaker.Failure()
			}
		}
		return nil, err
	}
	if s.fbBreaker != nil {
		s.fbBreaker.Success()
	}
	s.nBrownouts.Add(1)
	if s.tel != nil {
		s.tel.recordBrownout(src, epoch, cls)
	}
	return dist, nil
}

// runBrownout executes one fallback query under a panic guard, so a
// panicking fallback engine feeds the breaker instead of killing the
// requester's goroutine.
func (s *Server) runBrownout(ctx context.Context, ix *Index, src int) (dist []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			dist, err = nil, newPanicError("brownout", r)
		}
	}()
	return ix.fb.ssspCtx(ctx, ix.fb.g, src)
}

// Dist returns the u→v distance. When the index's pair oracle has been
// built it answers directly from the hub labels (no queueing); otherwise a
// cached distance vector for u answers without entering the admission
// limiter at all — a zero-allocation point read — and only a cache miss
// runs one SSSP request through the batching path and picks out v.
// Both endpoints are validated before any work is enqueued; an
// out-of-range endpoint fails fast with an error wrapping ErrBadOptions
// that names which endpoint (source or destination) is bad.
func (s *Server) Dist(ctx context.Context, u, v int) (float64, error) {
	if err := s.checkVertexRole(u, "source"); err != nil {
		return 0, err
	}
	if err := s.checkVertexRole(v, "destination"); err != nil {
		return 0, err
	}
	if o := s.mgr.Index().oracle.Load(); o != nil {
		return o.Dist(u, v), nil
	}
	if s.cache != nil {
		epoch := s.mgr.Epoch()
		if d, ok := s.cache.GetAt(u, epoch, v); ok {
			s.brown.Note(false)
			if s.tel != nil {
				s.tel.recordCacheHit(u, epoch)
			}
			return d, nil
		}
	}
	dist, err := s.SSSP(ctx, u)
	if err != nil {
		return 0, err
	}
	return dist[v], nil
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
	// Requests counts admitted requests; Rejected counts refusals with
	// ErrServerOverloaded; Cancelled and TimedOut count admitted requests
	// that ended with their context's cancellation or ErrQueueTimeout.
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
	TimedOut  int64 `json:"timed_out"`
	// Waves counts executed coalesced waves; Panics counts panics the
	// dispatcher recovered.
	Waves  int64 `json:"waves"`
	Panics int64 `json:"panics"`
	// EffectiveLimit is the adaptive admission limit currently in force
	// (≤ MaxInFlight); Brownout reports whether brownout mode is engaged;
	// Brownouts counts queries answered degraded from the fallback engine;
	// Evicted counts queued requests displaced by higher-priority arrivals.
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
		Rejected:       s.nRejected.Load(),
		Cancelled:      s.nCancelled.Load(),
		TimedOut:       s.nTimedOut.Load(),
		Waves:          s.nWaves.Load(),
		Panics:         s.nPanics.Load(),
		EffectiveLimit: s.effectiveLimit(),
		Brownout:       s.brown.Active(),
		Brownouts:      s.nBrownouts.Load(),
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

func (s *Server) checkVertex(v int) error {
	if v < 0 || v >= s.n {
		return fmt.Errorf("%w: vertex %d out of range [0,%d)", ErrBadOptions, v, s.n)
	}
	return nil
}

// checkVertexRole is checkVertex with the endpoint's role ("source",
// "destination") in the error, for two-endpoint entry points.
func (s *Server) checkVertexRole(v int, role string) error {
	if v < 0 || v >= s.n {
		return fmt.Errorf("%w: %s vertex %d out of range [0,%d)", ErrBadOptions, role, v, s.n)
	}
	return nil
}

// run is the dispatcher loop: block for one request, sweep up whatever
// else is already queued (up to MaxBatch, in priority order), serve the
// wave, repeat. Requests arriving while a wave runs accumulate in the queue
// and form the next wave — batching is adaptive: empty-queue latency is one
// solo query, and under load waves grow toward MaxBatch.
func (s *Server) run() {
	defer s.wg.Done()
	batch := make([]ssspReq, 0, s.maxBatch)
	for {
		r, _, ok := s.q.PopWait()
		if !ok {
			return
		}
		batch = s.gather(append(batch[:0], r))
		s.depth.Set(float64(s.q.Len()))
		s.serving.Add(int64(len(batch)))
		s.serveWave(batch)
		s.serving.Add(-int64(len(batch)))
	}
}

// gather drains queued requests into batch, up to maxBatch. When the queue
// runs dry it yields the processor a couple of times before sealing the
// wave: on a single-P runtime the dispatcher always wins the race back to
// the queue, so without the yield concurrent clients would be served in
// solo waves and never coalesce. The yields are no-ops when nothing else is
// runnable.
func (s *Server) gather(batch []ssspReq) []ssspReq {
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

// serveWave answers one coalesced batch: requests whose context already
// ended get their context's cause, the rest share one SourcesBatched wave
// under a merged context that lives as long as any member does. The whole
// wave runs under a panic guard — a panic answers every member with a
// *PanicError and the dispatcher moves on to the next wave.
//
// The wave pins the serving epoch for its whole duration: the epoch's
// index cannot be released by a concurrent Reweight swap until the wave's
// release runs, and every request in one wave is served by — and, with
// Telemetry, attributed to — exactly one epoch.
//
// A successful wave feeds the gradient limiter with the wave's worst
// member round-trip time (admission → decided), the signal the adaptive
// admission limit steers by.
//
// With Telemetry attached, each decided request records its outcome and
// its latency phase breakdown — queue wait (admission → wave start) and
// the wave's shared compute time — plus a flight-recorder event; without
// it this function performs only the limiter's clock reads.
func (s *Server) serveWave(batch []ssspReq) {
	ix, epoch, release := s.mgr.Acquire()
	defer release()
	instr := s.tel != nil || s.logger != nil
	var waveStart time.Time
	degraded := ix.Degraded() // also gates cache admission of the wave's rows
	if instr {
		waveStart = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			// Panics outside runWave's own guard (delivery bookkeeping).
			// Answer anyone still waiting; non-blocking sends make the
			// already-answered harmless.
			s.nPanics.Add(1)
			s.panics.Inc()
			pe := newPanicError("serve", r)
			if s.tel != nil {
				s.tel.recordQuery(live.OutcomePanic, -1, 0, 0, 0, len(batch), epoch, degraded)
			}
			if s.logger != nil {
				s.logger.Error("wave delivery panicked", "batch", len(batch), "err", pe)
			}
			for _, req := range batch {
				select {
				case req.resc <- ssspResp{err: pe}:
				default:
				}
			}
		}
	}()
	alive := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			cause := context.Cause(r.ctx)
			out := live.OutcomeCancelled
			if errors.Is(cause, ErrQueueTimeout) {
				s.nTimedOut.Add(1)
				s.timedout.Inc()
				out = live.OutcomeTimeout
			} else {
				s.nCancelled.Add(1)
				s.cancelled.Inc()
			}
			if s.tel != nil {
				s.tel.recordQuery(out, r.src, 0, waveStart.UnixNano()-r.enq, 0, 0, epoch, degraded)
			}
			r.resc <- ssspResp{err: cause}
			continue
		}
		alive = append(alive, r)
	}
	if len(alive) == 0 {
		return
	}
	srcs := make([]int, len(alive))
	for i, r := range alive {
		srcs[i] = r.src
	}
	waveID := s.waveSeq.Add(1)
	ctx, detach := waveContext(alive)
	defer detach() // idempotent; guards the early-panic path against watcher leaks
	var t0 time.Time
	var wst *pram.Stats
	if instr {
		t0 = time.Now()
		if s.tel != nil {
			wst = &pram.Stats{} // collect the wave's pruning telemetry
		}
	}
	rows, err := s.runWave(ctx, ix, srcs, wst)
	var computeNanos int64
	if instr {
		computeNanos = time.Since(t0).Nanoseconds()
	}
	detach()
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			s.nPanics.Add(1)
			s.panics.Inc()
			if s.logger != nil {
				s.logger.Error("wave panicked", "wave", waveID, "size", len(alive), "err", err)
			}
		}
		for _, r := range alive {
			resp := ssspResp{err: err}
			out := live.OutcomePanic
			if pe == nil {
				out = live.OutcomeError
			}
			if cerr := r.ctx.Err(); cerr != nil && pe == nil {
				// The wave was abandoned because every member went away;
				// answer each with its own cause and count it once here.
				resp.err = context.Cause(r.ctx)
				if errors.Is(resp.err, ErrQueueTimeout) {
					s.nTimedOut.Add(1)
					s.timedout.Inc()
					out = live.OutcomeTimeout
				} else {
					s.nCancelled.Add(1)
					s.cancelled.Inc()
					out = live.OutcomeCancelled
				}
			}
			if s.tel != nil {
				s.tel.recordQuery(out, r.src, waveID, waveStart.UnixNano()-r.enq, computeNanos, len(alive), epoch, degraded)
			}
			r.resc <- resp
		}
		return
	}
	s.nWaves.Add(1)
	s.waves.Inc()
	s.waveSize.Observe(float64(len(alive)))
	if s.tel != nil {
		for _, r := range alive {
			s.tel.recordQuery(live.OutcomeOK, r.src, waveID, waveStart.UnixNano()-r.enq, computeNanos, len(alive), epoch, degraded)
		}
		s.tel.recordWave(waveID, len(alive), computeNanos, epoch, degraded,
			wst.SkippedRounds(), wst.SkippedWork())
	}
	if s.logger != nil {
		s.logger.Debug("wave served", "wave", waveID, "size", len(alive), "epoch", epoch, "compute", time.Duration(computeNanos))
	}
	// Feed the limiter with the wave's worst member RTT: admission time of
	// the oldest member to now. Test-injected requests (enq 0) are skipped
	// so they cannot poison the baseline.
	var oldest int64
	for _, r := range alive {
		if r.enq > 0 && (oldest == 0 || r.enq < oldest) {
			oldest = r.enq
		}
	}
	if oldest > 0 {
		s.lim.Observe(time.Duration(time.Now().UnixNano() - oldest))
	}
	for i, r := range alive {
		r.resc <- ssspResp{dist: rows[i], epoch: epoch, degraded: degraded}
	}
}

// runWave executes one batched query — on the epoch-pinned index the wave
// acquired — under the dispatcher's panic guard: an injected or organic
// panic comes back as a *PanicError instead of killing the dispatcher (the
// Index's own FallbackPolicy, if any, has already had its chance to absorb
// it).
func (s *Server) runWave(ctx context.Context, ix *Index, srcs []int, st *pram.Stats) (rows [][]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, err = nil, newPanicError("serve", r)
		}
	}()
	if s.inj != nil {
		s.inj.Fire(faultinject.SiteServerWave)
	}
	return ix.sourcesBatchedStats(ctx, srcs, st)
}

// waveContext returns a context that is cancelled once EVERY member's
// context has ended — one abandoned request does not abort the shared wave,
// but a wave nobody is waiting for stops within one phase. detach must be
// called when the wave finishes to drop the AfterFunc watchers on the
// member contexts; it is safe to call more than once, so callers can both
// detach eagerly (to release watchers before delivery) and defer it (so a
// delivery panic cannot leak them).
func waveContext(live []ssspReq) (context.Context, func()) {
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
