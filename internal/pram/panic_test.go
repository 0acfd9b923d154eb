package pram

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sepsp/internal/faultinject"
)

// recoverPanic runs f and returns the recovered *Panic, or nil if f
// returned normally.
func recoverPanic(t *testing.T, f func()) (p *Panic) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		if p, ok = r.(*Panic); !ok {
			t.Fatalf("recovered %T (%v), want *Panic", r, r)
		}
	}()
	f()
	return nil
}

func TestWorkerPanicContained(t *testing.T) {
	for _, p := range []int{1, 4} {
		ex := NewExecutor(p)
		boom := errors.New("boom")
		var ran [64]bool
		got := recoverPanic(t, func() {
			ex.For(len(ran), func(i int) {
				if i == 17 {
					panic(boom)
				}
				ran[i] = true
			})
		})
		if got == nil {
			t.Fatalf("P=%d: panic did not propagate to the caller", p)
		}
		if got.Value != boom {
			t.Fatalf("P=%d: panic value %v, want %v", p, got.Value, boom)
		}
		if !bytes.Contains(got.Stack, []byte("goroutine")) {
			t.Fatalf("P=%d: captured stack looks empty: %q", p, got.Stack)
		}
		if !errors.Is(got, boom) {
			t.Fatalf("P=%d: errors.Is does not see through *Panic", p)
		}
		// Failed-but-queryable: the latch records the panic, and the
		// executor still runs subsequent rounds correctly.
		if !ex.Failed() || ex.PanicCount() != 1 || ex.LastPanic() != got {
			t.Fatalf("P=%d: latch failed=%v count=%d", p, ex.Failed(), ex.PanicCount())
		}
		sum := 0
		var mu sync.Mutex
		ex.For(10, func(i int) { mu.Lock(); sum += i; mu.Unlock() })
		if sum != 45 {
			t.Fatalf("P=%d: post-panic round computed %d, want 45", p, sum)
		}
	}
}

// TestForStopsAfterPanic: once an index has panicked, the other worker
// starts no further index, so a failed round ends early instead of
// draining every remaining index.
func TestForStopsAfterPanic(t *testing.T) {
	const n = 2000
	var started atomic.Int64
	recoverPanic(t, func() {
		NewExecutor(2).For(n, func(i int) {
			started.Add(1)
			if i == 0 {
				panic("first index boom")
			}
			time.Sleep(50 * time.Microsecond)
		})
	})
	if got := started.Load(); got >= n {
		t.Fatalf("%d of %d indices started after the panic; the round did not stop", got, n)
	}
}

// TestForDynamicPanicContainment: a panicking index of the pooled cursor
// round surfaces as *Panic in the caller (inline and multi-worker paths),
// the executor latches the panic, and it stays usable for the next round.
func TestForDynamicPanicContainment(t *testing.T) {
	for _, p := range []int{1, 4} {
		ex := NewExecutor(p)
		got := recoverPanic(t, func() {
			ex.For(32, func(i int) {
				if i == 5 {
					panic("index boom")
				}
			})
		})
		if got == nil || got.Value != "index boom" {
			t.Fatalf("p=%d: recovered %v, want the index panic", p, got)
		}
		if !ex.Failed() || ex.PanicCount() != 1 {
			t.Fatalf("p=%d: executor did not latch the panic", p)
		}
		var ran atomic.Int64
		ex.For(32, func(int) { ran.Add(1) })
		if ran.Load() != 32 {
			t.Fatalf("p=%d: round after the panic ran %d of 32 indices", p, ran.Load())
		}
	}
}

func TestForChunkedPanicContained(t *testing.T) {
	ex := NewExecutor(4)
	got := recoverPanic(t, func() {
		ex.ForChunked(32, func(lo, hi int) {
			if lo == 0 {
				panic("chunk zero")
			}
		})
	})
	if got == nil || got.Value != "chunk zero" {
		t.Fatalf("got %+v, want contained chunk panic", got)
	}
}

func TestConcurrentRoundsIsolatePanics(t *testing.T) {
	// Two rounds share one executor; only the panicking round's caller
	// sees the *Panic.
	ex := NewExecutor(4)
	var wg sync.WaitGroup
	errs := make([]*Panic, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = recoverPanic(t, func() {
				ex.For(64, func(i int) {
					if r == 0 && i == 3 {
						panic("round zero only")
					}
				})
			})
		}(r)
	}
	wg.Wait()
	if errs[0] == nil {
		t.Fatal("panicking round did not observe its panic")
	}
	if errs[1] != nil {
		t.Fatalf("clean round observed a foreign panic: %v", errs[1])
	}
}

func TestInjectorFiresAtWorkerBoundary(t *testing.T) {
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed:  3,
		Sites: map[string]faultinject.SiteConfig{faultinject.SitePramWorker: {PanicPerMille: 1000}},
	})
	ex := NewExecutor(2)
	ex.SetInjector(inj)
	got := recoverPanic(t, func() { ex.For(8, func(int) {}) })
	if got == nil || !faultinject.IsInjected(got.Value) {
		t.Fatalf("injected fault not surfaced as *Panic(*Injected): %+v", got)
	}
}

func TestSequentialExecutorRejectsInjector(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetInjector on Sequential did not panic")
		}
	}()
	Sequential.SetInjector(faultinject.NewSeeded(faultinject.Config{}))
}
