package admission

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute, Now: clk.now})
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
	b.Failure()
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker must refuse before cooldown")
	}
	wantTransitions(t, b, 0, 1, 0)
}

// wantTransitions checks b's transition counts into closed, open and
// half-open.
func wantTransitions(t *testing.T, b *Breaker, closed, open, halfOpen int64) {
	t.Helper()
	for st, want := range map[State]int64{StateClosed: closed, StateOpen: open, StateHalfOpen: halfOpen} {
		if got := b.Transitions(st); got != want {
			t.Fatalf("Transitions(%v) = %d, want %d", st, got, want)
		}
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Now: clk.now})
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v, want closed (success reset the streak)", got)
	}
	// The streak is 2 again, so the third failure in a row opens it.
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}
	wantTransitions(t, b, 0, 1, 0)
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute, Now: clk.now})
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	clk.advance(30 * time.Second)
	if b.Allow() {
		t.Fatal("must refuse mid-cooldown")
	}
	clk.advance(31 * time.Second)
	if !b.Allow() {
		t.Fatal("must admit the probe after cooldown")
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent probe must be refused")
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("recovered breaker must allow")
	}
	wantTransitions(t, b, 1, 1, 1)
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute, Now: clk.now})
	b.Failure()
	clk.advance(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("probe must be admitted")
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	// The cooldown restarts from the re-open.
	if b.Allow() {
		t.Fatal("must refuse right after re-open")
	}
	clk.advance(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("must admit a new probe after the second cooldown")
	}
	wantTransitions(t, b, 0, 2, 2)
}

func TestBreakerMultiProbeClose(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, ProbeSuccesses: 2, Now: clk.now})
	b.Failure()
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe 1 must be admitted")
	}
	b.Success()
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1/2 probe successes = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("probe 2 must be admitted")
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2/2 probe successes = %v, want closed", got)
	}
	wantTransitions(t, b, 1, 1, 1)
}

func TestBreakerOnTransition(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, Now: clk.now})
	type hop struct{ from, to State }
	var hops []hop
	b.OnTransition(func(from, to State) { hops = append(hops, hop{from, to}) })
	b.Failure()
	clk.advance(2 * time.Second)
	b.Allow()
	b.Success()
	want := []hop{
		{StateClosed, StateOpen},
		{StateOpen, StateHalfOpen},
		{StateHalfOpen, StateClosed},
	}
	if len(hops) != len(want) {
		t.Fatalf("transitions = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, hops[i], want[i])
		}
	}
	wantTransitions(t, b, 1, 1, 1)
	var disabled *Breaker
	if got := disabled.Transitions(StateOpen); got != 0 {
		t.Fatalf("nil breaker Transitions = %d, want 0", got)
	}
}

func TestBreakerStateString(t *testing.T) {
	cases := map[State]string{
		StateClosed:   "closed",
		StateOpen:     "open",
		StateHalfOpen: "half-open",
		State(99):     "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
