package sepsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/baseline"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
)

// Module-level differential fuzzing: random workloads from every generator
// family through the full public pipeline, validated against Bellman-Ford.

func diffCheck(t *testing.T, seed int64, g *Graph, opt *Options, ref *graph.Digraph) bool {
	t.Helper()
	ix, err := Build(g, opt)
	if err != nil {
		t.Errorf("seed=%d: Build: %v", seed, err)
		return false
	}
	rng := rand.New(rand.NewSource(seed ^ 0x777))
	srcs := make([]int, 3)
	for j := range srcs {
		srcs[j] = rng.Intn(ref.N())
	}
	rows, err := ix.SourcesBatchedContext(context.Background(), srcs)
	if err != nil {
		t.Errorf("seed=%d: SourcesBatchedContext: %v", seed, err)
		return false
	}
	for j, src := range srcs {
		want, err := baseline.BellmanFord(ref, src, nil)
		if err != nil {
			t.Errorf("seed=%d: BF: %v", seed, err)
			return false
		}
		got := mustSSSP(t, ix, src)
		for v := range want {
			if !closeDist(got[v], want[v]) || !closeDist(rows[j][v], want[v]) {
				t.Errorf("seed=%d src=%d v=%d: SSSP %v, wave %v, want %v", seed, src, v, got[v], rows[j][v], want[v])
				return false
			}
		}
		// Independent certificate check (no reference implementation).
		if err := ix.Verify(src, got); err != nil {
			t.Errorf("seed=%d src=%d: certificate rejected: %v", seed, src, err)
			return false
		}
	}
	return true
}

// closeDist reports whether got matches the reference distance want: both
// unreachable, or equal within a relative 1e-8.
func closeDist(got, want float64) bool {
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		return math.IsInf(want, 1) && math.IsInf(got, 1)
	}
	return math.Abs(got-want) <= 1e-8*(1+math.Abs(want))
}

// reachCheck checks ix's Reachable from every source against ref's
// Bellman–Ford: v is reachable exactly when its distance is finite. ref
// must hold no negative cycle.
func reachCheck(t *testing.T, ix *Index, ref *graph.Digraph) bool {
	t.Helper()
	for src := 0; src < ref.N(); src++ {
		want, err := baseline.BellmanFord(ref, src, nil)
		if err != nil {
			t.Errorf("src=%d: BF: %v", src, err)
			return false
		}
		got, err := ix.Reachable(src)
		if err != nil {
			t.Errorf("src=%d: Reachable: %v", src, err)
			return false
		}
		for v := range want {
			if got[v] != !math.IsInf(want[v], 1) {
				t.Errorf("src=%d v=%d: Reachable %v, Bellman-Ford distance %v", src, v, got[v], want[v])
				return false
			}
		}
	}
	return true
}

// pathCheck builds g with opt and checks PathContext for every pair
// against ref's Bellman–Ford: ok exactly when the distance is finite, the
// path runs from src to dst over edges of ref with a weight sum close to
// the distance, and the reported weight is SSSPContext's entry bit for bit.
// ref must hold no negative cycle.
func pathCheck(t *testing.T, g *Graph, opt *Options, ref *graph.Digraph) bool {
	t.Helper()
	ix, err := Build(g, opt)
	if err != nil {
		t.Errorf("Build: %v", err)
		return false
	}
	for src := 0; src < ref.N(); src++ {
		want, err := baseline.BellmanFord(ref, src, nil)
		if err != nil {
			t.Errorf("src=%d: BF: %v", src, err)
			return false
		}
		dist := mustSSSP(t, ix, src)
		for dst := range want {
			path, w, ok := mustPath(t, ix, src, dst)
			if ok != !math.IsInf(want[dst], 1) {
				t.Errorf("src=%d dst=%d: PathContext ok=%v, Bellman-Ford distance %v", src, dst, ok, want[dst])
				return false
			}
			if !ok {
				continue
			}
			if math.Float64bits(w) != math.Float64bits(dist[dst]) {
				t.Errorf("src=%d dst=%d: PathContext weight %v, SSSPContext %v", src, dst, w, dist[dst])
				return false
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Errorf("src=%d dst=%d: path %v has the wrong endpoints", src, dst, path)
				return false
			}
			sum := 0.0
			for i := 0; i+1 < len(path); i++ {
				ew, ok := ref.HasEdge(path[i], path[i+1])
				if !ok {
					t.Errorf("src=%d dst=%d: path %v uses a missing edge (%d,%d)", src, dst, path, path[i], path[i+1])
					return false
				}
				sum += ew
			}
			if !closeDist(sum, want[dst]) {
				t.Errorf("src=%d dst=%d: path %v weighs %v, Bellman-Ford distance %v", src, dst, path, sum, want[dst])
				return false
			}
		}
	}
	return true
}

// FuzzBuildVsBellmanFord decodes bytes into a small digraph with negative
// weights and checks Build, SSSPContext and SourcesBatchedContext at one
// and at two workers against Bellman–Ford (diffCheck), Reachable from
// every source against the vertices Bellman–Ford reaches (reachCheck),
// PathContext for every pair (pathCheck), and agreement on whether the
// graph holds a negative cycle.
//
// Encoding: data[0] picks n in [1, 24], the next n bytes are vertex
// potentials, and each following byte triple (u, v, w) adds the edge
// u%n → v%n with weight (w%24 − 4) + pot[u] − pot[v]. Reduced weights
// below zero make most inputs carry negative edges while only some carry
// a negative cycle. At most 96 edges are read.
func FuzzBuildVsBellmanFord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		data = data[1:]
		if len(data) < n {
			return
		}
		pot, data := data[:n], data[n:]
		g := NewGraph(n)
		for m := 0; len(data) >= 3 && m < 96; m++ {
			u, v := int(data[0])%n, int(data[1])%n
			g.AddEdge(u, v, float64(int(data[2])%24-4+int(pot[u])-int(pot[v])))
			data = data[3:]
		}
		ref := refGraph(g)
		_, negCycle := baseline.FindNegativeCycle(ref, nil)
		for _, workers := range []int{1, 2} {
			opt := &Options{Workers: workers}
			if !negCycle {
				ix, err := Build(g, opt)
				if err != nil {
					t.Fatalf("workers=%d: Build: %v", workers, err)
				}
				if !diffCheck(t, int64(n), g, opt, ref) || !reachCheck(t, ix, ref) || !pathCheck(t, g, opt, ref) {
					t.Fatalf("workers=%d: mismatch against Bellman-Ford", workers)
				}
				continue
			}
			if _, err := Build(g, opt); !errors.Is(err, ErrNegativeCycle) {
				t.Fatalf("workers=%d: Build err = %v, but Bellman-Ford finds a negative cycle", workers, err)
			}
		}
	})
}

// FuzzWithWeightsVsBuild decodes bytes into a small digraph and a second
// weight set on the same edges, and checks that reweighting an index
// (WithWeightsContext) gives what a fresh Build of the reweighted graph
// gives: the same E+ slice, bit for bit, the same SSSPContext distances
// and SourcesBatchedContext rows from three sources, and ErrNegativeCycle
// exactly when the fresh Build reports it. It also checks the reweighted
// index's Reachable from every source against Bellman–Ford on the second
// graph (reachCheck), so +Inf weights reach it.
//
// Encoding: data[0] picks n in [1, 24], the next n bytes are vertex
// potentials, and each following byte quadruple (u, v, w1, w2) adds the
// edge u%n → v%n with weight (w%24 − 4) + pot[u] − pot[v] in the first
// graph (w = w1) and in the second (w = w2). At most 96 edges are read.
// The first byte after them, if any, is a control byte c that picks the
// path the reweight takes, by c%5:
//
//	0: new weights only (the E+ layout and the schedule arena are reused);
//	1: the second graph reverses edge i when (c/8 + i)%3 == 0 (same
//	   skeleton, new directed edge set);
//	2: edge i weighs +Inf when (c/8 + i)%3 == 0, in the second graph when
//	   c/8 is even and in the first when it is odd (a pair may flip from
//	   finite to +Inf, or back);
//	3: the second graph gets its edges in a permutation seeded by c;
//	4: both builds run Algorithm 4.3 (Simultaneous).
//
// Inputs whose first graph has a negative cycle have no index to reweight
// and are skipped.
func FuzzWithWeightsVsBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		data = data[1:]
		if len(data) < n {
			return
		}
		pot, data := data[:n], data[n:]
		type edge struct {
			u, v   int
			w1, w2 float64
		}
		var edges []edge
		for m := 0; len(data) >= 4 && m < 96; m++ {
			u, v := int(data[0])%n, int(data[1])%n
			shift := int(pot[u]) - int(pot[v])
			edges = append(edges, edge{u, v, float64(int(data[2])%24 - 4 + shift), float64(int(data[3])%24 - 4 + shift)})
			data = data[4:]
		}
		c := 0
		if len(data) > 0 {
			c = int(data[0])
		}
		opt := &Options{}
		g1, g2 := NewGraph(n), NewGraph(n)
		for i, e := range edges {
			if c%5 == 2 && (c/8)%2 == 1 && (c/8+i)%3 == 0 {
				e.w1 = math.Inf(1)
			}
			g1.AddEdge(e.u, e.v, e.w1)
		}
		order := make([]int, len(edges))
		for i := range order {
			order[i] = i
		}
		if c%5 == 3 {
			order = rand.New(rand.NewSource(int64(c))).Perm(len(edges))
		}
		for i, j := range order {
			e, picked := edges[j], (c/8+i)%3 == 0
			switch {
			case c%5 == 1 && picked:
				g2.AddEdge(e.v, e.u, e.w2+float64(2*(int(pot[e.v])-int(pot[e.u]))))
			case c%5 == 2 && (c/8)%2 == 0 && picked:
				g2.AddEdge(e.u, e.v, math.Inf(1))
			default:
				g2.AddEdge(e.u, e.v, e.w2)
			}
		}
		if c%5 == 4 {
			opt.Algorithm = Simultaneous
		}
		ctx := context.Background()
		srcs := []int{0, n / 2, n - 1}
		for _, workers := range []int{1, 2} {
			opt.Workers = workers
			ix, err := Build(g1, opt)
			if errors.Is(err, ErrNegativeCycle) {
				return
			}
			if err != nil {
				t.Fatalf("workers=%d: Build: %v", workers, err)
			}
			re, errRe := ix.WithWeightsContext(ctx, g2)
			fresh, errFresh := Build(g2, opt)
			if errors.Is(errFresh, ErrNegativeCycle) {
				if !errors.Is(errRe, ErrNegativeCycle) {
					t.Fatalf("workers=%d: WithWeights err = %v, fresh Build finds a negative cycle", workers, errRe)
				}
				continue
			}
			if errFresh != nil || errRe != nil {
				t.Fatalf("workers=%d: fresh Build err = %v, WithWeights err = %v", workers, errFresh, errRe)
			}
			if !sameEdges(re.eng.Augmentation().Edges, fresh.eng.Augmentation().Edges) {
				t.Fatalf("workers=%d: reweighted E+ differs from a fresh Build's", workers)
			}
			if c%5 == 0 && !re.eng.Augmentation().SharesLayout(ix.eng.Augmentation()) {
				t.Fatalf("workers=%d: new finite weights on the same edges did not reuse the E+ layout", workers)
			}
			rows, err := re.SourcesBatchedContext(ctx, srcs)
			if err != nil {
				t.Fatalf("workers=%d: SourcesBatchedContext: %v", workers, err)
			}
			for i, src := range srcs {
				got, want := mustSSSP(t, re, src), mustSSSP(t, fresh, src)
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) || math.Float64bits(rows[i][v]) != math.Float64bits(want[v]) {
						t.Fatalf("workers=%d src=%d v=%d: reweighted %v (wave %v), fresh %v", workers, src, v, got[v], rows[i][v], want[v])
					}
				}
			}
			if !reachCheck(t, re, refGraph(g2)) {
				t.Fatalf("workers=%d: reweighted Reachable disagrees with Bellman-Ford", workers)
			}
		}
	})
}

func toPublic(dg *graph.Digraph) *Graph {
	g := NewGraph(dg.N())
	dg.Edges(func(from, to int, w float64) bool {
		g.AddEdge(from, to, w)
		return true
	})
	return g
}

func TestFuzzGridsAllAlgorithms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(8), 2 + rng.Intn(8)}
		if rng.Intn(3) == 0 {
			dims = append(dims, 2+rng.Intn(3))
		}
		grid := gen.NewGrid(dims, gen.UniformWeights(0, 4), rng)
		ref := grid.G
		if rng.Intn(2) == 0 {
			ref, _ = gen.PotentialShift(ref, 6, rng)
		}
		opt := &Options{Decomposition: GridDecomposition(grid.Coord), LeafSize: 2 + rng.Intn(7)}
		if rng.Intn(2) == 0 {
			opt.Algorithm = Simultaneous
		}
		if rng.Intn(3) == 0 {
			opt.Workers = 1 + rng.Intn(4)
		}
		return diffCheck(t, seed, toPublic(ref), opt, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzRandomDigraphsAutoDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		m := rng.Intn(4 * n)
		ref := gen.RandomDigraph(n, m, gen.UniformWeights(0, 5), rng)
		return diffCheck(t, seed, toPublic(ref), &Options{LeafSize: 2 + rng.Intn(8)}, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzKTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		n := k + 2 + rng.Intn(100)
		kt := gen.NewKTree(n, k, gen.UniformWeights(0.1, 3), rng)
		opt := &Options{Decomposition: TreeDecomposition(kt.Decomp.Bags, kt.Decomp.Parent)}
		return diffCheck(t, seed, toPublic(kt.G), opt, kt.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzGeometric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		radius := 0.08 + 0.08*rng.Float64()
		geo := gen.NewGeometric(n, 2, radius, gen.UniformWeights(0.1, 1), rng)
		opt := &Options{Decomposition: GeometricDecomposition(geo.Points, radius)}
		return diffCheck(t, seed, toPublic(geo.G), opt, geo.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzDelaunayWithRotations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(150)
		d := gen.NewDelaunay(n, gen.UnitWeights(), rng)
		// Randomly drop some directions (one-way streets); the embedding
		// stays a superset of the skeleton, which CycleFinder tolerates.
		g := NewGraph(n)
		d.G.Edges(func(from, to int, w float64) bool {
			if rng.Float64() < 0.9 {
				g.AddEdge(from, to, w)
			}
			return true
		})
		ref := refGraph(g)
		return diffCheck(t, seed, g, &Options{Decomposition: PlanarDecomposition(d.Rotation)}, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// FuzzQueryVsReference cross-checks the optimized query executors against
// the retained naive reference relaxer (SSSPReference): SSSP, every row of
// a SourcesBatched wave, and SSSPFrom from a vector with a single 0 at the
// source must be bit-identical to it, not merely close — every executor
// walks the same arena runs in the same order as the reference. An
// independent Bellman-Ford run (with tolerance) keeps the executors honest
// against agreeing on a wrong answer.
//
// Encoding: seed drives a potential-shifted grid of 3..9 × 3..9 vertices
// (negative weights) with 1–4 near-cancelling 2-cycles threaded along grid
// edges (total weight barely positive, the regime where any reordering of
// float relaxations shows up as a bit difference), the query sources and
// the wave size (1..40, with repeats); leaf picks the leaf size 2 + leaf%6
// and workers the executor size 1 + workers%4. The committed seeds named
// k<N> draw waves of N sources.
func FuzzQueryVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, leaf, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{3 + rng.Intn(7), 3 + rng.Intn(7)}
		grid := gen.NewGrid(dims, gen.UniformWeights(0.1, 4), rng)
		shifted, pot := gen.PotentialShift(grid.G, 6, rng)

		// Collect the shifted edges, then thread in near-cancelling
		// 2-cycles along existing grid edges: each direction gets reduced
		// weight ε>0 under the same potential, so one side is usually
		// negative but no cycle ever is, and the skeleton (hence the
		// coordinate separator tree) is unchanged.
		type edge struct {
			from, to int
			w        float64
		}
		var edges []edge
		shifted.Edges(func(from, to int, w float64) bool {
			edges = append(edges, edge{from, to, w})
			return true
		})
		g := toPublic(shifted)
		b := graph.NewBuilder(shifted.N())
		for _, e := range edges {
			b.AddEdge(e.from, e.to, e.w)
		}
		for c := 1 + rng.Intn(4); c > 0; c-- {
			e := edges[rng.Intn(len(edges))]
			for _, dir := range [][2]int{{e.from, e.to}, {e.to, e.from}} {
				eps := 1e-6 * (1 + rng.Float64())
				w := eps + pot[dir[0]] - pot[dir[1]]
				g.AddEdge(dir[0], dir[1], w)
				b.AddEdge(dir[0], dir[1], w)
			}
		}
		ref := b.Build()

		p := 1 + int(workers)%4
		ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord), LeafSize: 2 + int(leaf)%6, Workers: p})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		eng := ix.eng
		same := func(what string, src int, got, want []float64) {
			t.Helper()
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s src=%d v=%d: %v != reference %v (bitwise)", what, src, v, got[v], want[v])
				}
			}
		}

		// Solo queries: SSSP and SSSPFrom vs the reference bit for bit, the
		// reference vs Bellman-Ford within tolerance.
		for trial := 0; trial < 2; trial++ {
			src := rng.Intn(ref.N())
			want := eng.SSSPReference(src, nil)
			same("SSSP", src, eng.SSSP(src, nil), want)
			init := make([]float64, ref.N())
			for v := range init {
				init[v] = math.Inf(1)
			}
			init[src] = 0
			same("SSSPFrom", src, eng.SSSPFrom(init, nil), want)
			bf, err := baseline.BellmanFord(ref, src, nil)
			if err != nil {
				t.Fatalf("BF: %v", err)
			}
			for v := range bf {
				if !closeDist(want[v], bf[v]) {
					t.Fatalf("src=%d v=%d: reference %v, Bellman-Ford %v", src, v, want[v], bf[v])
				}
			}
		}

		// Batched wave: every row bit-identical to the reference. Waves of
		// up to 40 sources reach one-lane blocks and full and padded blocks
		// of every lane width, and about a third of the sources repeat an
		// earlier one.
		srcs := make([]int, 1+rng.Intn(40))
		for j := range srcs {
			srcs[j] = rng.Intn(ref.N())
			if j > 0 && rng.Intn(3) == 0 {
				srcs[j] = srcs[rng.Intn(j)]
			}
		}
		rows := eng.SourcesBatched(srcs, nil)
		for j, src := range srcs {
			same(fmt.Sprintf("wave k=%d row %d", len(srcs), j), src, rows[j], eng.SSSPReference(src, nil))
		}
	})
}

func TestFuzzOracleAgainstEngine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		grid := gen.NewGrid([]int{3 + rng.Intn(6), 3 + rng.Intn(6)}, gen.UniformWeights(0.5, 2), rng)
		ix, err := Build(toPublic(grid.G), &Options{Decomposition: GridDecomposition(grid.Coord), LeafSize: 3 + rng.Intn(4)})
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return false
		}
		o, err := ix.BuildOracle()
		if err != nil {
			t.Errorf("seed=%d: oracle: %v", seed, err)
			return false
		}
		for trial := 0; trial < 10; trial++ {
			u, v := rng.Intn(grid.G.N()), rng.Intn(grid.G.N())
			want := mustSSSP(t, ix, u)[v]
			got, err := o.Dist(u, v)
			if err != nil {
				t.Errorf("seed=%d (%d,%d): %v", seed, u, v, err)
				return false
			}
			if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
				t.Errorf("seed=%d (%d,%d): oracle %v engine %v", seed, u, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
