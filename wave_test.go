package sepsp

// Failure paths of the multi-source wave, whose lane blocks run on the
// executor's workers: cancellation and panics inside those workers.
// `make chaos` runs these under -race.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sepsp/internal/baseline"
	"sepsp/internal/faultinject"
)

// phaseHook is a faultinject.Injector that acts only at the engine's phase
// boundaries: it counts them, runs onFire after the given number of them,
// and panics with a *faultinject.Injected at every one while armed.
type phaseHook struct {
	fired  atomic.Int64
	after  int64
	onFire func()
	armed  atomic.Bool
}

func (h *phaseHook) Fire(site string) faultinject.Fault {
	if site != faultinject.SiteQueryPhase {
		return faultinject.None
	}
	if n := h.fired.Add(1); n == h.after && h.onFire != nil {
		h.onFire()
	}
	if h.armed.Load() {
		panic(&faultinject.Injected{Site: site})
	}
	return faultinject.None
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base and reports the last count seen.
func waitGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(time.Second); n > base && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestSourcesWaveCancelMidWave: a context cancelled while a wave's sources
// run on two workers makes every worker's in-flight query return ctx.Err()
// within one phase — so at most one phase boundary (the other worker's)
// fires after the cancellation — starts no further source, returns
// ctx.Err() from the call, and leaves no worker goroutine behind.
func TestSourcesWaveCancelMidWave(t *testing.T) {
	g, grid := gridGraph(t, 12, 12, 5)
	hook := &phaseHook{after: 40}
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord), Workers: 2, Inject: hook})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]int, 16)
	for j := range srcs {
		srcs[j] = j * 9
	}
	ctx, cancel := context.WithCancel(context.Background())
	var atCancel int64
	hook.onFire = func() {
		cancel()
		atCancel = hook.fired.Load()
	}
	base := runtime.NumGoroutine()
	rows, err := ix.SourcesBatchedContext(ctx, srcs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatal("cancelled wave returned rows")
	}
	if extra := hook.fired.Load() - atCancel; extra > 1 {
		t.Fatalf("%d phase boundaries fired after the cancellation, want <= 1", extra)
	}
	if n := waitGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the cancelled wave, %d before", n, base)
	}

	// The same index answers the next wave in full.
	hook.onFire = nil
	rows, err = ix.SourcesBatchedContext(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	for j, src := range srcs {
		want := mustSSSP(t, ix, src)
		for v := range want {
			if rows[j][v] != want[v] {
				t.Fatalf("src=%d v=%d: wave %v, SSSP %v", src, v, rows[j][v], want[v])
			}
		}
	}
}

// TestSourcesWaveWorkerPanicSurfaces: a phase-boundary panic inside a wave
// worker surfaces as the chaos suite expects — a *PanicError carrying the
// injected value without a fallback, the exact baseline answer with one —
// and the index answers exactly once the injector is disarmed.
func TestSourcesWaveWorkerPanicSurfaces(t *testing.T) {
	g, grid := gridGraph(t, 8, 8, 7)
	ref := refGraph(g)
	srcs := []int{0, 9, 18, 27, 36, 45, 54, 63}
	for _, fb := range []FallbackPolicy{FallbackOff, FallbackBaseline} {
		hook := &phaseHook{}
		hook.armed.Store(true)
		ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord), Workers: 2, Inject: hook, Fallback: fb})
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		rows, err := ix.SourcesBatchedContext(context.Background(), srcs)
		if fb == FallbackOff {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("no fallback: err = %v, want *PanicError", err)
			}
			if inj, ok := pe.Value.(*faultinject.Injected); !ok || inj.Site != faultinject.SiteQueryPhase {
				t.Fatalf("no fallback: PanicError.Value = %#v, want the injected phase panic", pe.Value)
			}
			if rows != nil {
				t.Fatal("no fallback: panicking wave returned rows")
			}
		} else if err != nil {
			t.Fatalf("fallback: err = %v, want the baseline answer", err)
		}
		if n := waitGoroutines(base); n > base {
			t.Fatalf("%d goroutines after the panicking wave, %d before", n, base)
		}
		if fb == FallbackBaseline {
			for j, src := range srcs {
				want, err := baseline.Dijkstra(ref, src, nil)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if !approxEq(rows[j][v], want[v]) {
						t.Fatalf("fallback src=%d v=%d: %v want %v", src, v, rows[j][v], want[v])
					}
				}
			}
		}

		hook.armed.Store(false)
		rows, err = ix.SourcesBatchedContext(context.Background(), srcs)
		if err != nil {
			t.Fatalf("disarmed wave: %v", err)
		}
		for j, src := range srcs {
			want := mustSSSP(t, ix, src)
			for v := range want {
				if rows[j][v] != want[v] {
					t.Fatalf("disarmed src=%d v=%d: wave %v, SSSP %v", src, v, rows[j][v], want[v])
				}
			}
		}
	}
}
