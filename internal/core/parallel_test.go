package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

func TestSSSPParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 4+rng.Intn(8), 4+rng.Intn(8)
		grid := gen.NewGrid([]int{w, h}, gen.UniformWeights(0, 3), rng)
		g, _ := gen.PotentialShift(grid.G, 5, rng) // negative edges too
		sk := graph.NewSkeleton(g)
		tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
		if err != nil {
			t.Errorf("Build: %v", err)
			return false
		}
		eng, err := NewEngine(g, tree, Config{Ex: pram.NewExecutor(4)})
		if err != nil {
			t.Errorf("NewEngine: %v", err)
			return false
		}
		src := rng.Intn(g.N())
		want := eng.SSSP(src, nil)
		got := eng.SSSPParallel(src, nil)
		for v := range want {
			if !almostEqual(got[v], want[v]) {
				t.Errorf("seed=%d v=%d: parallel %v sequential %v", seed, v, got[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSSSPParallelCountsSameWork: the sequential and parallel executors
// both run every phase of the static schedule, so their counted cost is
// identical and nothing is skipped.
func TestSSSPParallelCountsSameWork(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{10, 10}, gen.UniformWeights(1, 2), 3, Config{Ex: pram.NewExecutor(8)})
	st1, st2 := &pram.Stats{}, &pram.Stats{}
	eng.SSSP(0, st1)
	eng.SSSPParallel(0, st2)
	if st1.Work() != st2.Work() || st1.Rounds() != st2.Rounds() {
		t.Fatalf("accounting differs: sequential (%d, %d) vs parallel (%d, %d)",
			st1.Work(), st1.Rounds(), st2.Work(), st2.Rounds())
	}
	if st1.SkippedWork() != 0 || st2.SkippedWork() != 0 {
		t.Fatalf("skipped work reported: sequential %d, parallel %d", st1.SkippedWork(), st2.SkippedWork())
	}
}

func TestAtomicMinFloat(t *testing.T) {
	cell := math.Float64bits(5)
	if !atomicMinFloat(&cell, 3) {
		t.Fatal("lowering write refused")
	}
	if atomicMinFloat(&cell, 4) {
		t.Fatal("raising write accepted")
	}
	if atomicMinFloat(&cell, 3) {
		t.Fatal("equal write accepted")
	}
	if !atomicMinFloat(&cell, -10) {
		t.Fatal("negative lowering refused")
	}
	if math.Float64frombits(cell) != -10 {
		t.Fatalf("cell=%v", math.Float64frombits(cell))
	}
}
