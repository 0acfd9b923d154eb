//go:build !race

package pram

import (
	"sync/atomic"
	"testing"
)

// TestForDynamicSteadyStateAllocs: the round state and the spawned
// workers' closure are pooled, so a multi-worker round allocates nothing.
// Excluded under -race, whose instrumentation inflates the counts.
func TestForDynamicSteadyStateAllocs(t *testing.T) {
	ex := NewExecutor(2)
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	ex.ForDynamic(16, fn)
	if avg := testing.AllocsPerRun(100, func() { ex.ForDynamic(16, fn) }); avg > 0 {
		t.Fatalf("ForDynamic allocates %.1f objects per round, want 0", avg)
	}
}
