package augment_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sepsp/internal/augment"
	"sepsp/internal/baseline"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/planar"
	"sepsp/internal/separator"
)

// oneWay keeps each directed edge of g with probability 1/2, so the
// result has one-way edges and, mostly, pairs with no path.
func oneWay(g *graph.Digraph, rng *rand.Rand) *graph.Digraph {
	b := graph.NewBuilder(g.N())
	g.Edges(func(from, to int, w float64) bool {
		if rng.Intn(2) == 0 {
			b.AddEdge(from, to, w)
		}
		return true
	})
	return b.Build()
}

// TestDistancePairsMatchBooleanPairs: a node emits the pair (u, v) into
// the distance E+ exactly when d(u, v) < +Inf, which is exactly when the
// boolean construction emits it. So the (From, To) sequences of Alg41 and
// Alg43 equal Reach43's, which is why the distance schedule also answers
// reachability. Checked over the finder behind every public decomposition,
// each on random finite-weight digraphs it can separate, with negative
// weights (a potential shift) on every other seed.
func TestDistancePairsMatchBooleanPairs(t *testing.T) {
	w := gen.UniformWeights(0, 5)
	finders := []struct {
		name string
		make func(rng *rand.Rand) (*graph.Digraph, separator.Finder)
	}{
		{"bfs", func(rng *rand.Rand) (*graph.Digraph, separator.Finder) {
			n := 5 + rng.Intn(120)
			return gen.RandomDigraph(n, rng.Intn(3*n), w, rng), &separator.BFSFinder{}
		}},
		{"coordinate", func(rng *rand.Rand) (*graph.Digraph, separator.Finder) {
			grid := gen.NewGrid([]int{2 + rng.Intn(9), 2 + rng.Intn(9)}, w, rng)
			return oneWay(grid.G, rng), &separator.CoordinateFinder{Coord: grid.Coord}
		}},
		{"slab", func(rng *rand.Rand) (*graph.Digraph, separator.Finder) {
			const radius = 0.15
			geo := gen.NewGeometric(20+rng.Intn(100), 2, radius, w, rng)
			return oneWay(geo.G, rng), &separator.SlabFinder{Points: geo.Points, Radius: radius}
		}},
		{"treedecomp", func(rng *rand.Rand) (*graph.Digraph, separator.Finder) {
			k := 1 + rng.Intn(3)
			kt := gen.NewKTree(k+2+rng.Intn(80), k, w, rng)
			return oneWay(kt.G, rng), &separator.TreeDecompFinder{Bags: kt.Decomp.Bags, Parent: kt.Decomp.Parent}
		}},
		{"planar", func(rng *rand.Rand) (*graph.Digraph, separator.Finder) {
			d := gen.NewDelaunay(10+rng.Intn(80), w, rng)
			return oneWay(d.G, rng), &planar.CycleFinder{Em: planar.NewEmbeddingFromRotations(d.Rotation)}
		}},
	}
	for _, f := range finders {
		t.Run(f.name, func(t *testing.T) {
			unreachable := 0
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g, finder := f.make(rng)
				if seed%2 == 1 {
					g, _ = gen.PotentialShift(g, 6, rng)
				}
				tree, err := separator.Build(graph.NewSkeleton(g), finder, separator.Options{LeafSize: 2 + rng.Intn(7)})
				if err != nil {
					t.Fatalf("seed=%d: separator.Build: %v", seed, err)
				}
				want, err := augment.Reach43(g, tree, augment.Config{})
				if err != nil {
					t.Fatalf("seed=%d: Reach43: %v", seed, err)
				}
				for name, alg := range map[string]func(*graph.Digraph, *separator.Tree, augment.Config) (*augment.Result, error){
					"Alg41": augment.Alg41, "Alg43": augment.Alg43,
				} {
					got, err := alg(g, tree, augment.Config{})
					if err != nil {
						t.Fatalf("seed=%d: %s: %v", seed, name, err)
					}
					if msg := samePairs(got.Edges, want.Edges); msg != "" {
						t.Fatalf("seed=%d: %s against Reach43: %s", seed, name, msg)
					}
				}
				for src := 0; src < g.N(); src++ {
					dist, err := baseline.BellmanFord(g, src, nil)
					if err != nil {
						t.Fatalf("seed=%d: BF: %v", seed, err)
					}
					for _, d := range dist {
						if math.IsInf(d, 1) {
							unreachable++
						}
					}
				}
			}
			if unreachable == 0 {
				t.Fatal("no instance has an unreachable pair")
			}
		})
	}
}

// samePairs returns "" when a and b list the same (From, To) sequence, and
// the first difference otherwise.
func samePairs(a, b []graph.Edge) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].From != b[i].From || a[i].To != b[i].To {
			return fmt.Sprintf("pair %d is (%d,%d), want (%d,%d)", i, a[i].From, a[i].To, b[i].From, b[i].To)
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d pairs, want %d", len(a), len(b))
	}
	return ""
}
