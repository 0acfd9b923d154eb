package sepsp

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"sepsp/internal/admission"
	"sepsp/internal/distcache"
	"sepsp/internal/faultinject"
)

// BreakerOptions tunes one circuit breaker in the serving stack (the
// rebuild breaker on a Manager, the fallback breaker on a Server). The zero
// value uses the defaults noted on each field — breakers are on by default.
type BreakerOptions struct {
	// Disabled turns the breaker off entirely: the guarded operation is
	// always allowed and failures only latch counters elsewhere.
	Disabled bool
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 3).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 30s).
	Cooldown time.Duration
	// ProbeSuccesses is how many consecutive half-open probe successes
	// close the breaker again (default 1).
	ProbeSuccesses int

	// now replaces the breaker's clock in tests; nil uses time.Now.
	now func() time.Time
}

// build constructs the configured breaker, or nil when disabled.
func (o BreakerOptions) build() *admission.Breaker {
	if o.Disabled {
		return nil
	}
	return admission.NewBreaker(admission.BreakerConfig{
		FailureThreshold: o.FailureThreshold,
		Cooldown:         o.Cooldown,
		ProbeSuccesses:   o.ProbeSuccesses,
		Now:              o.now,
	})
}

// BreakerState is a circuit breaker's public state (see Manager.BreakerState
// and the sepsp_breaker_state metric family, which exports the numeric
// value).
type BreakerState int

const (
	// BreakerClosed: operations flow; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: operations are refused with ErrBreakerOpen until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe operation is in flight; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

// String returns the state's wire name ("closed", "open", "half-open").
func (s BreakerState) String() string { return admission.State(s).String() }

// ManagerOptions configures NewManager. The zero value (or nil) uses the
// defaults noted on each field.
type ManagerOptions struct {
	// Telemetry, when non-nil, receives the manager's lifecycle telemetry:
	// the rebuild-duration histogram and epoch-tagged flight-recorder
	// events, and it reads the manager's swap, rebuild-failure and rebuild
	// breaker counts at scrape time.
	Telemetry *Telemetry
	// Logger, when non-nil, receives structured lifecycle logs via
	// log/slog: swaps at Info, rebuild failures at Error, epoch drains at
	// Debug. Nil disables logging at zero cost.
	Logger *slog.Logger
	// Inject, when non-nil, fires the fault-injection harness at the
	// rebuild boundary (site "manager.rebuild"). Chaos testing only.
	Inject faultinject.Injector
	// RebuildBreaker tunes the circuit breaker around reweighting rebuilds:
	// after FailureThreshold consecutive failed rebuilds the manager stops
	// attempting them — Reweight fails fast with ErrBreakerOpen — until the
	// cooldown elapses and one half-open probe rebuild succeeds. On by
	// default; a cancelled rebuild neither counts as failure nor resolves a
	// probe.
	RebuildBreaker BreakerOptions
}

// epochIndex pairs one *Index with its generation tag and the count of
// references pinning it (in-flight serving waves, plus one base reference
// held while the epoch is current). It is the unit the manager RCU-swaps.
type epochIndex struct {
	ix *Index
	id uint64
	// refs counts base + in-flight references. It never goes back up from
	// 0: acquire uses CAS so a fully drained epoch can never be revived,
	// which makes the drained transition exact (fires exactly once).
	refs atomic.Int64
}

// acquire pins the epoch for one wave. It fails — returning false — only
// when the epoch has fully drained (refs hit 0), which cannot happen to
// the manager's current epoch because the base reference keeps refs ≥ 1.
func (e *epochIndex) acquire() bool {
	for {
		r := e.refs.Load()
		if r == 0 {
			return false
		}
		if e.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Manager owns an epoch-versioned *Index lifecycle: a generation-tagged
// index behind an atomic pointer, background single-flight reweighting
// rebuilds, and an RCU hot-swap that lets a Server (or any caller of
// Acquire) keep serving queries with zero downtime across weight changes.
//
// The lifecycle is the paper's comment (iv) operationalized: the separator
// decomposition depends only on the undirected skeleton, so a traffic-cost
// update (same roads, new weights) reruns only the E+ construction — in
// the background, on the serving executor, while the old epoch keeps
// answering queries. When the rebuild finishes, the new index is stamped
// with the next epoch and swapped in atomically: new waves route to it
// immediately, in-flight waves drain on the old epoch, and the old epoch
// is released only when its last wave completes.
//
// Failure semantics reuse the degradation ladder: a rebuild that fails or
// panics latches a failure counter, surfaces ErrRebuildFailed to the
// Reweight caller, and leaves live traffic untouched on the old epoch.
// All methods are safe for concurrent use.
type Manager struct {
	cur atomic.Pointer[epochIndex]

	tel    *Telemetry
	cache  *distcache.Cache // result cache whose generation tracks swaps; nil without one
	logger *slog.Logger
	inj    faultinject.Injector

	rebuilding atomic.Bool  // single-flight latch
	swaps      atomic.Int64 // completed hot-swaps
	failures   atomic.Int64 // latched failed/panicked rebuilds
	draining   atomic.Int64 // retired epochs whose waves have not finished

	breaker *admission.Breaker // rebuild circuit breaker; nil when disabled
}

// NewManager adopts ix as the manager's first serving epoch. An index with
// no epoch tag yet (Epoch() == 0, i.e. built rather than loaded from a
// managed snapshot) is stamped epoch 1; a loaded index keeps its persisted
// tag so epochs stay monotone across restarts.
func NewManager(ix *Index, opt *ManagerOptions) *Manager {
	return newManager(ix, opt, nil)
}

// newManager is NewManager with the result cache whose generation each
// completed swap bumps (stale vectors stop being admitted and die lazily
// under eviction pressure — no stop-the-world flush); NewServer passes its
// own.
func newManager(ix *Index, opt *ManagerOptions, cache *distcache.Cache) *Manager {
	m := &Manager{cache: cache}
	var brkOpt BreakerOptions
	if opt != nil {
		m.tel = opt.Telemetry
		m.logger = opt.Logger
		m.inj = opt.Inject
		brkOpt = opt.RebuildBreaker
	}
	m.breaker = brkOpt.build()
	if m.breaker != nil && m.logger != nil {
		m.breaker.OnTransition(func(_, to admission.State) {
			m.logger.Info("rebuild breaker transition", "to", to.String())
		})
	}
	ix.epoch.CompareAndSwap(0, 1)
	e := &epochIndex{ix: ix, id: ix.Epoch()}
	e.refs.Store(1) // base reference: held while the epoch is current
	m.cur.Store(e)
	if m.tel != nil {
		m.tel.attachManager(m)
	}
	return m
}

// Index returns the currently serving index. Callers that need the index
// pinned across a computation (so a concurrent swap cannot release its
// epoch mid-use) should use Acquire instead.
func (m *Manager) Index() *Index { return m.cur.Load().ix }

// Epoch returns the generation tag of the currently serving index.
func (m *Manager) Epoch() uint64 { return m.cur.Load().id }

// Rebuilding reports whether a reweighting rebuild is in flight.
func (m *Manager) Rebuilding() bool { return m.rebuilding.Load() }

// Swaps returns how many hot-swaps have completed.
func (m *Manager) Swaps() int64 { return m.swaps.Load() }

// RebuildFailures returns how many rebuilds failed or panicked (each left
// the then-current epoch serving).
func (m *Manager) RebuildFailures() int64 { return m.failures.Load() }

// BreakerState returns the rebuild circuit breaker's current state.
// A disabled breaker always reports BreakerClosed.
func (m *Manager) BreakerState() BreakerState {
	if m.breaker == nil {
		return BreakerClosed
	}
	return BreakerState(m.breaker.State())
}

// Acquire pins the current epoch and returns its index, its epoch tag, and
// a release func. The epoch — even after being swapped out — is not
// considered drained until every acquirer has called release, so a reader
// never observes its index's backing epoch released mid-query. release is
// idempotent-unsafe: call it exactly once.
func (m *Manager) Acquire() (*Index, uint64, func()) {
	for {
		e := m.cur.Load()
		if !e.acquire() {
			// The pointer was stale and that epoch fully drained between
			// the load and the acquire; the current epoch's base reference
			// guarantees progress on retry.
			continue
		}
		return e.ix, e.id, func() { m.release(e) }
	}
}

// release drops one reference; the zero crossing of a retired epoch is the
// drain event (the base reference makes it unreachable for a current one).
func (m *Manager) release(e *epochIndex) {
	if e.refs.Add(-1) != 0 {
		return
	}
	d := m.draining.Add(-1)
	if m.logger != nil {
		m.logger.Debug("epoch drained", "epoch", e.id, "draining", d)
	}
}

// Reweight rebuilds the index for g — same undirected skeleton, new
// weights and/or directions — on a background goroutine and hot-swaps the
// result in as the next epoch. It blocks until the swap happens (returning
// the new epoch tag) or the rebuild fails. Concurrent calls are
// single-flight: while one rebuild runs, others fail fast with
// ErrRebuildInFlight.
//
// The rebuild is Index.WithWeightsContext on the current epoch: the
// separator tree is always reused, and when g keeps the current graph's
// directed edges in the same order, so are E+'s pair layout and the query
// schedule's arena structure, shared read-only between the two epochs;
// only the min-plus work of the E+ construction and the new weights are
// computed.
//
// ctx cancels the rebuild (polled at the reconstruction's outer-loop
// boundaries): a cancelled rebuild returns ctx's error, does not count as
// a failure, and leaves the current epoch serving. A rebuild that fails or
// panics is isolated — the panic is recovered into a *PanicError, the
// failure counter latches, ErrRebuildFailed (wrapping the cause) is
// returned, and live traffic never leaves the old epoch.
func (m *Manager) Reweight(ctx context.Context, g *Graph) (uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !m.rebuilding.CompareAndSwap(false, true) {
		return 0, ErrRebuildInFlight
	}
	defer m.rebuilding.Store(false)

	if m.breaker != nil && !m.breaker.Allow() {
		return 0, fmt.Errorf("%w: rebuilds suspended after repeated failures", ErrBreakerOpen)
	}

	old := m.cur.Load()
	start := time.Now()
	type result struct {
		ix  *Index
		err error
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- result{nil, newPanicError("rebuild", r)}
			}
		}()
		if m.inj != nil {
			m.inj.Fire(faultinject.SiteManagerRebuild)
		}
		ix, err := old.ix.WithWeightsContext(ctx, g)
		done <- result{ix, err}
	}()
	// The rebuild goroutine observes ctx at its loop boundaries, so waiting
	// for it here stays bounded after a cancellation; not abandoning it
	// keeps the single-flight latch honest (no overlapping rebuilds on the
	// shared executor).
	res := <-done
	elapsed := time.Since(start)

	if res.err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(res.err, cerr) {
			// Cancelled by the caller: not a failure, nothing latches, and a
			// half-open probe is released unresolved.
			if m.breaker != nil {
				m.breaker.Cancel()
			}
			if m.logger != nil {
				m.logger.Info("rebuild cancelled", "epoch", old.id, "after", elapsed, "err", res.err)
			}
			return 0, res.err
		}
		if m.breaker != nil {
			m.breaker.Failure()
		}
		m.failures.Add(1)
		if m.tel != nil {
			m.tel.recordRebuild(old.id, elapsed, false)
		}
		if m.logger != nil {
			m.logger.Error("rebuild failed; old epoch keeps serving",
				"epoch", old.id, "after", elapsed, "err", res.err)
		}
		return 0, fmt.Errorf("%w: %w", ErrRebuildFailed, res.err)
	}

	if m.breaker != nil {
		m.breaker.Success()
	}
	next := old.id + 1
	res.ix.epoch.Store(next)
	// Bump the result cache's generation before the swap publishes the new
	// epoch: vectors computed on older epochs stop being admitted and are
	// evicted first, while requests already keyed at an old epoch simply
	// stop matching (new requests read the post-swap epoch for their key).
	m.cache.BumpGeneration(next)
	e := &epochIndex{ix: res.ix, id: next}
	e.refs.Store(1)
	m.draining.Add(1) // the old epoch starts draining at the swap below
	m.cur.Store(e)
	m.swaps.Add(1)
	m.release(old) // drop the base reference; drained once waves finish
	if m.tel != nil {
		m.tel.recordRebuild(next, elapsed, true)
	}
	if m.logger != nil {
		m.logger.Info("epoch swapped", "epoch", next, "rebuild", elapsed, "draining", m.draining.Load())
	}
	return next, nil
}
