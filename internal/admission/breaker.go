package admission

import (
	"sync"
	"time"
)

// State is a circuit breaker state.
type State uint8

const (
	// StateClosed: requests flow; failures are counted.
	StateClosed State = iota
	// StateOpen: requests are refused without being attempted until the
	// cooldown elapses.
	StateOpen
	// StateHalfOpen: one probe is allowed through; its outcome decides
	// between closing and re-opening.
	StateHalfOpen
)

// String returns the state's wire name, used as a metric label value and in
// health lines.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes NewBreaker. The zero value uses the defaults noted on
// each field.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 3). A success resets the count.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 30s).
	Cooldown time.Duration
	// ProbeSuccesses is how many consecutive half-open successes close the
	// breaker again (default 1).
	ProbeSuccesses int
	// Now replaces the clock (tests); nil uses time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker that counts its own
// state transitions by target state (Transitions). Repeated failures of
// the guarded operation open it; while open, Allow refuses immediately
// (the caller stops hammering a doomed operation); after the cooldown one
// probe is let through, and its outcome decides whether the circuit
// closes or re-opens for another cooldown. The clock is injectable, so
// every transition is deterministic under test. All methods are safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu           sync.Mutex
	state        State
	consecutive  int       // consecutive failures while closed
	probeWins    int       // consecutive successes while half-open
	probing      bool      // a half-open probe is in flight
	openedAt     time.Time // when the breaker last opened
	transitions  [3]int64  // state changes, by target state
	onTransition func(from, to State)
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// OnTransition registers fn to be called (outside the breaker's lock) on
// every state change. At most one callback; later calls replace it.
func (b *Breaker) OnTransition(fn func(from, to State)) {
	b.mu.Lock()
	b.onTransition = fn
	b.mu.Unlock()
}

// transitionLocked moves to state `to` and returns the callback to run
// after unlocking (nil if none).
func (b *Breaker) transitionLocked(to State) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	b.transitions[to]++
	if to == StateOpen {
		b.openedAt = b.cfg.Now()
	}
	if fn := b.onTransition; fn != nil {
		return func() { fn(from, to) }
	}
	return nil
}

// Allow reports whether the guarded operation may proceed. While open it
// returns false until the cooldown elapses, at which point the breaker
// moves to half-open and admits exactly one probe; further calls are
// refused until that probe resolves via Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var notify func()
	defer func() {
		b.mu.Unlock()
		if notify != nil {
			notify()
		}
	}()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		notify = b.transitionLocked(StateHalfOpen)
		b.probeWins = 0
		b.probing = true
		return true
	case StateHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful operation. In half-open it counts toward
// ProbeSuccesses and closes the breaker when reached; in closed it resets
// the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	var notify func()
	defer func() {
		b.mu.Unlock()
		if notify != nil {
			notify()
		}
	}()
	switch b.state {
	case StateClosed:
		b.consecutive = 0
	case StateHalfOpen:
		b.probing = false
		b.probeWins++
		if b.probeWins >= b.cfg.ProbeSuccesses {
			notify = b.transitionLocked(StateClosed)
			b.consecutive = 0
		}
	}
}

// Failure records a failed operation. In closed it opens the breaker once
// FailureThreshold consecutive failures accumulate; in half-open the probe
// failed and the breaker re-opens for another cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	var notify func()
	defer func() {
		b.mu.Unlock()
		if notify != nil {
			notify()
		}
	}()
	switch b.state {
	case StateClosed:
		b.consecutive++
		if b.consecutive >= b.cfg.FailureThreshold {
			notify = b.transitionLocked(StateOpen)
		}
	case StateHalfOpen:
		b.probing = false
		notify = b.transitionLocked(StateOpen)
	}
}

// Cancel resolves an in-flight half-open probe as neither success nor
// failure (the operation was cancelled before it could tell the breaker
// anything), releasing the probe latch so the next Allow admits a fresh
// probe. A no-op in other states.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	if b.state == StateHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// State returns the current state, accounting for an elapsed cooldown (an
// open breaker whose cooldown has passed reports half-open readiness only
// via Allow; State reports the stored state to keep reads side-effect
// free).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Transitions returns how many times the breaker has moved into state to.
// A nil breaker (disabled) reports 0.
func (b *Breaker) Transitions(to State) int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transitions[to]
}
