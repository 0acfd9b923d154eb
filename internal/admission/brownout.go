package admission

import "sync"

// BrownoutConfig tunes NewBrownout. The zero value uses the defaults noted
// on each field.
type BrownoutConfig struct {
	// Threshold is the shed-rate EWMA at which brownout engages (default
	// 0.1: one in ten admission decisions shedding means the server is
	// past its knee). Brownout disengages once the rate falls below
	// Threshold/2; the gap is hysteresis so the mode does not flap at the
	// boundary.
	Threshold float64
}

// brownoutAlpha is the EWMA step per admission decision: a ~20-decision
// memory.
const brownoutAlpha = 0.05

// Brownout tracks the recent shed rate and decides when the server should
// stop refusing low-priority work outright and start answering it degraded
// instead (the brownout: reduced quality of service rather than none).
// It is a pure function of the Note call sequence — no clock — with
// hysteresis between the engage and disengage thresholds. All methods are
// safe for concurrent use.
type Brownout struct {
	enter, exit float64 // engage at rate ≥ enter, disengage below exit

	mu     sync.Mutex
	rate   float64 // EWMA of the shed indicator
	active bool
}

// NewBrownout returns a detector with no history (inactive, rate 0).
func NewBrownout(cfg BrownoutConfig) *Brownout {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.1
	}
	return &Brownout{enter: cfg.Threshold, exit: cfg.Threshold / 2}
}

// Note records one admission decision: shed is true when the request was
// refused or evicted, false when it was admitted.
func (b *Brownout) Note(shed bool) {
	v := 0.0
	if shed {
		v = 1.0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rate += brownoutAlpha * (v - b.rate)
	switch {
	case !b.active && b.rate >= b.enter:
		b.active = true
	case b.active && b.rate < b.exit:
		b.active = false
	}
}

// Active reports whether brownout mode is engaged.
func (b *Brownout) Active() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active
}
