package augment

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/matrix"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

func gridAndTree(t *testing.T, dims []int, wf gen.WeightFn, seed int64, leafSize int) (*graph.Digraph, *separator.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := gen.NewGrid(dims, wf, rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: leafSize})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return grid.G, tree
}

// apspRef computes exact reference distances with Floyd-Warshall.
func apspRef(g *graph.Digraph) *matrix.Dense {
	d := matrix.NewSquare(g.N())
	g.Edges(func(from, to int, w float64) bool {
		d.SetMin(from, to, w)
		return true
	})
	if err := matrix.FloydWarshall(d, pram.Sequential, nil); err != nil {
		panic(err)
	}
	return d
}

func TestShortcutEdgesAreSound(t *testing.T) {
	// Every E+ edge (u,v,w) must satisfy w >= dist_G(u,v): shortcut weights
	// are path weights in subgraphs of G (Theorem 3.1(i) direction).
	g, tree := gridAndTree(t, []int{7, 7}, gen.UniformWeights(0.5, 4), 10, 4)
	ref := apspRef(g)
	for _, alg := range []func(*graph.Digraph, *separator.Tree, Config) (*Result, error){Alg41, Alg43} {
		res, err := alg(g, tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Edges {
			d := ref.At(e.From, e.To)
			if e.W < d-1e-9*(1+math.Abs(d)) {
				t.Fatalf("shortcut (%d,%d,%v) below true distance %v", e.From, e.To, e.W, d)
			}
		}
	}
}

func TestShortcutEdgesAreExactNodeDistances(t *testing.T) {
	// Stronger: E+ covers every pair in S(t)×S(t) ∪ B(t)×B(t) with the
	// exact distance in the *global* graph whenever that distance is
	// realized inside G(t). For the root node, dist_{G(root)} = dist_G, so
	// every root separator pair must appear with the exact global distance.
	g, tree := gridAndTree(t, []int{8, 8}, gen.UniformWeights(1, 5), 3, 4)
	ref := apspRef(g)
	res, err := Alg41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	em := make(map[int64]float64)
	for _, e := range res.Edges {
		em[pairKey(e.From, e.To)] = e.W
	}
	root := tree.Root()
	for _, u := range root.S {
		for _, v := range root.S {
			if u == v {
				continue
			}
			d := ref.At(u, v)
			w, ok := em[pairKey(u, v)]
			if math.IsInf(d, 1) {
				if ok {
					t.Fatalf("root pair (%d,%d): edge exists but unreachable", u, v)
				}
				continue
			}
			if !ok {
				t.Fatalf("root pair (%d,%d): no shortcut edge", u, v)
			}
			if math.Abs(w-d) > 1e-9*(1+math.Abs(d)) {
				t.Fatalf("root pair (%d,%d): shortcut %v, true %v", u, v, w, d)
			}
		}
	}
}

func TestAlg41And43Agree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(7)
		h := 2 + rng.Intn(7)
		grid := gen.NewGrid([]int{w, h}, gen.UniformWeights(0.1, 3), rng)
		sk := graph.NewSkeleton(grid.G)
		tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 3 + rng.Intn(4)})
		if err != nil {
			t.Errorf("Build: %v", err)
			return false
		}
		r1, err := Alg41(grid.G, tree, Config{})
		if err != nil {
			t.Errorf("Alg41: %v", err)
			return false
		}
		r2, err := Alg43(grid.G, tree, Config{})
		if err != nil {
			t.Errorf("Alg43: %v", err)
			return false
		}
		return sameEdgeMap(t, r1.Edges, r2.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func sameEdgeMap(t *testing.T, a, b []graph.Edge) bool {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("edge counts differ: %d vs %d", len(a), len(b))
		return false
	}
	am := make(map[int64]float64, len(a))
	for _, e := range a {
		am[pairKey(e.From, e.To)] = e.W
	}
	for _, e := range b {
		w, ok := am[pairKey(e.From, e.To)]
		if !ok {
			t.Errorf("edge (%d,%d) only in second set", e.From, e.To)
			return false
		}
		if math.Abs(w-e.W) > 1e-9*(1+math.Abs(w)) {
			t.Errorf("edge (%d,%d): %v vs %v", e.From, e.To, w, e.W)
			return false
		}
	}
	return true
}

func TestFloydWarshallModeAgrees(t *testing.T) {
	g, tree := gridAndTree(t, []int{9, 6}, gen.UniformWeights(0.5, 2), 4, 4)
	r1, err := Alg41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Alg41(g, tree, Config{UseFloydWarshall: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdgeMap(t, r1.Edges, r2.Edges) {
		t.Fatal("FW and squaring closures disagree")
	}
}

func TestParallelAgreesWithSequential(t *testing.T) {
	g, tree := gridAndTree(t, []int{10, 10}, gen.UniformWeights(0.5, 2), 6, 5)
	r1, err := Alg41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Alg41(g, tree, Config{Ex: pram.NewExecutor(8)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdgeMap(t, r1.Edges, r2.Edges) {
		t.Fatal("parallel run disagrees with sequential")
	}
	r3, err := Alg43(g, tree, Config{Ex: pram.NewExecutor(8)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameEdgeMap(t, r1.Edges, r3.Edges) {
		t.Fatal("parallel Alg43 disagrees")
	}
}

func TestDiameterBoundHolds(t *testing.T) {
	// Theorem 3.1(ii): diam(G+) <= 4 d_G + 2 l + 1.
	for _, dims := range [][]int{{8, 8}, {20, 3}, {4, 4, 4}} {
		g, tree := gridAndTree(t, dims, gen.UniformWeights(1, 4), 8, 5)
		res, err := Alg41(g, tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		edges := append(g.EdgeList(), res.Edges...)
		bound := DiameterBound(tree)
		diam := MinWeightDiameter(g.N(), edges, bound+4, pram.NewExecutor(4))
		if diam > bound {
			t.Fatalf("dims=%v: measured diam(G+)=%d exceeds bound %d (d_G=%d, leaf=%d)",
				dims, diam, bound, tree.Height, tree.MaxLeafSize())
		}
		// The bound is only meaningful if it is dramatically smaller than
		// the unaugmented diameter for the big grids.
		if g.N() > 60 {
			plain := MinWeightDiameter(g.N(), g.EdgeList(), g.N(), pram.NewExecutor(4))
			if plain <= diam {
				t.Fatalf("dims=%v: augmentation did not shrink diameter (%d vs %d)", dims, plain, diam)
			}
		}
	}
}

func TestAugmentationSizeScaling(t *testing.T) {
	// Theorem 5.1(iii): |E+| = O(n^{2μ}) for μ > 1/2 families and O(n log n)
	// at μ = 1/2. Sanity check: on the √n×√n grid, |E+| stays well below n².
	g, tree := gridAndTree(t, []int{24, 24}, gen.UnitWeights(), 2, 6)
	res, err := Alg41(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.N())
	if float64(len(res.Edges)) > 14*n*math.Log2(n) {
		t.Fatalf("|E+|=%d too large for n=%v (n log n = %v)", len(res.Edges), n, n*math.Log2(n))
	}
	if res.RawCount < int64(len(res.Edges)) {
		t.Fatal("raw count below deduplicated count")
	}
}

func TestNegativeCycleInsideLeafDetected(t *testing.T) {
	// Negative 2-cycle buried between two adjacent grid vertices: contained
	// entirely inside one leaf (or one H_S), must be detected by both
	// algorithms.
	rng := rand.New(rand.NewSource(5))
	grid := gen.NewGrid([]int{6, 6}, gen.UniformWeights(0.5, 1), rng)
	b := graph.NewBuilder(grid.G.N())
	grid.G.Edges(func(from, to int, w float64) bool {
		b.AddEdge(from, to, w)
		return true
	})
	u, v := grid.Index([]int{2, 2}), grid.Index([]int{2, 3})
	b.AddEdge(u, v, 1)
	b.AddEdge(v, u, -2)
	g := b.Build()
	sk := graph.NewSkeleton(g)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Alg41(g, tree, Config{}); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("Alg41: want ErrNegativeCycle, got %v", err)
	}
	if _, err := Alg43(g, tree, Config{}); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("Alg43: want ErrNegativeCycle, got %v", err)
	}
}

func TestNegativeCycleCrossingTopSeparator(t *testing.T) {
	// A long negative cycle around the grid perimeter crosses the root
	// separator, exercising detection at internal nodes.
	rng := rand.New(rand.NewSource(6))
	grid := gen.NewGrid([]int{8, 8}, gen.UniformWeights(1, 2), rng)
	b := graph.NewBuilder(grid.G.N())
	grid.G.Edges(func(from, to int, w float64) bool {
		b.AddEdge(from, to, w)
		return true
	})
	// Perimeter cycle with slightly negative total.
	var per []int
	for x := 0; x < 8; x++ {
		per = append(per, grid.Index([]int{x, 0}))
	}
	for y := 1; y < 8; y++ {
		per = append(per, grid.Index([]int{7, y}))
	}
	for x := 6; x >= 0; x-- {
		per = append(per, grid.Index([]int{x, 7}))
	}
	for y := 6; y >= 1; y-- {
		per = append(per, grid.Index([]int{0, y}))
	}
	for i := range per {
		b.AddEdge(per[i], per[(i+1)%len(per)], -0.01)
	}
	g := b.Build()
	sk := graph.NewSkeleton(g)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Alg41(g, tree, Config{}); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("Alg41: want ErrNegativeCycle, got %v", err)
	}
	if _, err := Alg43(g, tree, Config{}); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("Alg43: want ErrNegativeCycle, got %v", err)
	}
}

func TestReach43Soundness(t *testing.T) {
	// Every boolean shortcut must correspond to true reachability.
	rng := rand.New(rand.NewSource(7))
	g := gen.RandomDigraph(60, 140, gen.UnitWeights(), rng)
	sk := graph.NewSkeleton(g)
	tree, err := separator.Build(sk, &separator.BFSFinder{}, separator.Options{LeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reach43(g, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reach := reachabilityRef(g)
	for _, e := range res.Edges {
		if !reach[e.From][e.To] {
			t.Fatalf("boolean shortcut (%d,%d) but not reachable", e.From, e.To)
		}
	}
	// Root separator pairs must be complete (dist realized inside G(root)=G).
	em := make(map[int64]bool)
	for _, e := range res.Edges {
		em[pairKey(e.From, e.To)] = true
	}
	for _, u := range tree.Root().S {
		for _, v := range tree.Root().S {
			if u != v && reach[u][v] && !em[pairKey(u, v)] {
				t.Fatalf("missing root reachability pair (%d,%d)", u, v)
			}
		}
	}
}

func reachabilityRef(g *graph.Digraph) [][]bool {
	n := g.N()
	out := make([][]bool, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		seen[s] = true
		stack := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Out(v, func(to int, _ float64) bool {
				if !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
				return true
			})
		}
		out[s] = seen
	}
	return out
}

// TestResultEdgesCanonicalOrder pins the Result.Edges contract: every
// construction returns E+ in strictly increasing (From, To) order, so no
// pair appears twice and two runs return identical slices.
func TestResultEdgesCanonicalOrder(t *testing.T) {
	g, tree := gridAndTree(t, []int{5, 5}, gen.UnitWeights(), 9, 3)
	for name, run := range map[string]func(*graph.Digraph, *separator.Tree, Config) (*Result, error){
		"Alg41": Alg41, "Alg43": Alg43, "Reach41": Reach41, "Reach43": Reach43,
	} {
		for _, p := range []int{1, 4} {
			res, err := run(g, tree, Config{Ex: pram.NewExecutor(p)})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Edges) == 0 {
				t.Fatalf("%s: empty E+", name)
			}
			for i := 1; i < len(res.Edges); i++ {
				a, b := res.Edges[i-1], res.Edges[i]
				if a.From > b.From || (a.From == b.From && a.To >= b.To) {
					t.Fatalf("%s P=%d: edge %d (%d,%d) does not follow (%d,%d)", name, p, i, b.From, b.To, a.From, a.To)
				}
			}
		}
	}
}
