//go:build !race

package pram

import (
	"sync/atomic"
	"testing"
)

// TestForSteadyStateAllocs: the round state and the spawned workers'
// closure are pooled, so a multi-worker For or ForChunked round allocates
// nothing. Excluded under -race, whose instrumentation inflates the counts.
func TestForSteadyStateAllocs(t *testing.T) {
	ex := NewExecutor(2)
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	chunk := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	ex.For(16, fn)
	ex.ForChunked(16, chunk)
	if avg := testing.AllocsPerRun(100, func() { ex.For(16, fn) }); avg > 0 {
		t.Fatalf("For allocates %.1f objects per round, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { ex.ForChunked(16, chunk) }); avg > 0 {
		t.Fatalf("ForChunked allocates %.1f objects per round, want 0", avg)
	}
}
