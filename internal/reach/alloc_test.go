//go:build !race

package reach

// Allocation pins for the boolean engine. Excluded under -race because the
// race detector instruments allocations and inflates the counts.

import (
	"math/rand"
	"testing"

	"sepsp/internal/graph/gen"
	"sepsp/internal/separator"
)

// TestReachFirstQueryAllocsOnlyItsResult: the boolean engine relaxes the
// schedule's arena in place, so even the first From on a fresh engine
// allocates only the returned set.
func TestReachFirstQueryAllocsOnlyItsResult(t *testing.T) {
	grid := gen.NewGrid([]int{12, 12}, gen.UniformWeights(0.5, 3), rand.New(rand.NewSource(9)))
	const runs = 5
	engs := make([]*Engine, runs+1) // AllocsPerRun makes one warm-up call
	for i := range engs {
		engs[i] = buildEngine(t, grid.G, &separator.CoordinateFinder{Coord: grid.Coord}, 8)
	}
	i := 0
	if avg := testing.AllocsPerRun(runs, func() { _ = engs[i].From(0, nil); i++ }); avg != 1 {
		t.Fatalf("first From on a fresh engine allocates %.1f objects, want 1", avg)
	}
}
