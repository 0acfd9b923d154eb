package core

import (
	"math/rand"
	"testing"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// TestSourcesBatchedBitIdenticalAcrossExecutors: workers only decide who
// answers which source, never what is computed, so a k=32 wave's rows and
// counted cost must be the same for every worker count, and its rows must
// equal the naive reference relaxer's.
func TestSourcesBatchedBitIdenticalAcrossExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grid := gen.NewGrid([]int{13, 12}, gen.UniformWeights(0.1, 4), rng)
	g, _ := gen.PotentialShift(grid.G, 6, rng) // negative weights too
	sk := graph.NewSkeleton(g)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]int, 32)
	for j := range srcs {
		srcs[j] = rng.Intn(g.N())
	}
	var base [][]float64
	var baseCost [3]int64
	for _, p := range []int{1, 2, 4} {
		eng, err := NewEngine(g, tree, Config{Ex: pram.NewExecutor(p)})
		if err != nil {
			t.Fatal(err)
		}
		st := &pram.Stats{}
		rows := eng.SourcesBatched(srcs, st)
		if base == nil {
			base = rows
			baseCost = [3]int64{st.Work(), st.SkippedWork(), st.Rounds()}
			for j, src := range srcs {
				ref := eng.SSSPReference(src, nil)
				for v := range ref {
					if rows[j][v] != ref[v] {
						t.Fatalf("P=1 src=%d v=%d: batched %v != reference %v", src, v, rows[j][v], ref[v])
					}
				}
			}
			continue
		}
		if cost := [3]int64{st.Work(), st.SkippedWork(), st.Rounds()}; cost != baseCost {
			t.Fatalf("P=%d counted work/skipped/rounds %v, P=1 counted %v", p, cost, baseCost)
		}
		for j := range rows {
			for v := range rows[j] {
				if rows[j][v] != base[j][v] {
					t.Fatalf("P=%d src=%d v=%d: %v != P=1 %v", p, srcs[j], v, rows[j][v], base[j][v])
				}
			}
		}
	}
}

// TestSourcesBatchedPerLanePruningMatchesSolo: each lane of a wave runs
// the solo query, so a wave of k distinct sources counts exactly the k solo
// queries' work — k·WorkPerSource — in Phases rounds, with nothing skipped.
func TestSourcesBatchedPerLanePruningMatchesSolo(t *testing.T) {
	eng, g := buildGridEngine(t, []int{10, 10}, gen.UniformWeights(0.5, 2), 7, Config{})
	srcs := []int{0, g.N() / 2, g.N() - 1, 17}
	k := int64(len(srcs))

	solo := &pram.Stats{}
	for _, src := range srcs {
		eng.SSSP(src, solo)
	}
	wave := &pram.Stats{}
	eng.SourcesBatched(srcs, wave)

	if wave.Work() != solo.Work() {
		t.Fatalf("wave executed %d relaxations, solo queries %d", wave.Work(), solo.Work())
	}
	if wave.Work() != k*eng.Schedule().WorkPerSource() || wave.SkippedWork() != 0 {
		t.Fatalf("wave work %d (skipped %d), want k·WorkPerSource %d", wave.Work(), wave.SkippedWork(), k*eng.Schedule().WorkPerSource())
	}
	if wave.Rounds() != int64(eng.Schedule().Phases()) {
		t.Fatalf("wave rounds %d != Phases %d", wave.Rounds(), eng.Schedule().Phases())
	}
}
