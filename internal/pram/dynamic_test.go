package pram

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestForDynamicCoversEveryIndex: every index runs exactly once for every
// worker count, including fewer indices than workers, and one busy
// iteration is charged per index.
func TestForDynamicCoversEveryIndex(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			ex := NewExecutor(p)
			hits := make([]int32, n)
			ex.ForDynamic(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d ran %d times", p, n, i, h)
				}
			}
			var total int64
			for _, v := range ex.WorkerIters() {
				total += v
			}
			if total != int64(n) {
				t.Fatalf("p=%d n=%d: busy iterations %d, want %d", p, n, total, n)
			}
		}
	}
}

// TestForDynamicPanicContainment: a panicking index surfaces as *Panic in
// the caller (inline and multi-worker paths), the executor latches the
// panic, and it stays usable for the next round.
func TestForDynamicPanicContainment(t *testing.T) {
	for _, p := range []int{1, 4} {
		ex := NewExecutor(p)
		got := recoverPanic(t, func() {
			ex.ForDynamic(32, func(i int) {
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
		ex.ForDynamic(32, func(int) { ran.Add(1) })
		if ran.Load() != 32 {
			t.Fatalf("p=%d: round after the panic ran %d of 32 indices", p, ran.Load())
		}
	}
}

// TestForDynamicStopsAfterPanic: once an index has panicked, the other
// worker starts no further index, so a failed round ends early instead of
// draining every remaining index.
func TestForDynamicStopsAfterPanic(t *testing.T) {
	const n = 2000
	var started atomic.Int64
	recoverPanic(t, func() {
		NewExecutor(2).ForDynamic(n, func(i int) {
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
