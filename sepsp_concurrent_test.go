package sepsp

// Concurrency tests for the shared-Index serving guarantees: one Index,
// many goroutines, every public query path at once. Run under -race these
// fail on any unsynchronized lazy initialization (the reverse engine and
// the pair oracle) or on shared query scratch.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"sepsp/internal/baseline"
)

// TestIndexConcurrentMixedQueries hammers one shared Index from many
// goroutines mixing every query kind, including Reachable and the lazily
// initialized DistTo / BuildOracle paths, and checks every answer against
// sequential baselines.
func TestIndexConcurrentMixedQueries(t *testing.T) {
	g, grid := gridGraph(t, 9, 9, 7)
	n := grid.G.N()
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential ground truth (forward and reverse).
	fwd := make([][]float64, n)
	for v := 0; v < n; v++ {
		if fwd[v], err = baseline.BellmanFord(grid.G, v, nil); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 12
	var wg sync.WaitGroup
	errc := make(chan error, workers*8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := (w * 13) % n
			dst := (w*29 + 7) % n
			switch w % 6 {
			case 0:
				dist, err := ix.SSSPContext(context.Background(), src)
				if err != nil {
					report(err)
					return
				}
				for v := range dist {
					if !approxEq(dist[v], fwd[src][v]) {
						report(errAtf("SSSP(%d)[%d] = %v want %v", src, v, dist[v], fwd[src][v]))
						return
					}
				}
			case 1:
				dist, err := ix.DistToContext(context.Background(), dst)
				if err != nil {
					report(err)
					return
				}
				for u := range dist {
					if !approxEq(dist[u], fwd[u][dst]) {
						report(errAtf("DistTo(%d)[%d] = %v want %v", dst, u, dist[u], fwd[u][dst]))
						return
					}
				}
			case 2:
				reach, err := ix.Reachable(src)
				if err != nil {
					report(err)
					return
				}
				for v := range reach {
					if reach[v] != !math.IsInf(fwd[src][v], 1) {
						report(errAtf("Reachable(%d)[%d] = %v", src, v, reach[v]))
						return
					}
				}
			case 3:
				o, err := ix.BuildOracle()
				if err != nil {
					report(err)
					return
				}
				if d, err := o.Dist(src, dst); err != nil || !approxEq(d, fwd[src][dst]) {
					report(errAtf("Oracle.Dist(%d,%d) = %v, %v want %v", src, dst, d, err, fwd[src][dst]))
					return
				}
			case 4:
				if d, err := ix.DistContext(context.Background(), src, dst); err != nil || !approxEq(d, fwd[src][dst]) {
					report(errAtf("DistContext(%d,%d) = %v, %v want %v", src, dst, d, err, fwd[src][dst]))
					return
				}
			case 5:
				dist, parent, err := ix.SSSPTreeContext(context.Background(), src)
				if err != nil {
					report(err)
					return
				}
				if !approxEq(dist[dst], fwd[src][dst]) {
					report(errAtf("SSSPTreeContext(%d) dist[%d] = %v want %v", src, dst, dist[dst], fwd[src][dst]))
					return
				}
				if parent[src] != src {
					report(errAtf("SSSPTreeContext(%d) parent[src] = %d", src, parent[src]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestIndexConcurrentLazyInitOnce checks that racing first callers of each
// lazily built engine all share one result (pointer-equal oracles) rather
// than building per caller.
func TestIndexConcurrentLazyInitOnce(t *testing.T) {
	g, grid := gridGraph(t, 6, 6, 3)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	oracles := make([]*Oracle, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o, err := ix.BuildOracle()
			if err != nil {
				t.Error(err)
				return
			}
			oracles[w] = o
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if oracles[w] != oracles[0] {
			t.Fatalf("BuildOracle returned distinct oracles: %p vs %p", oracles[w], oracles[0])
		}
	}
}

// TestSSSPContextCancelled checks the context query paths return promptly
// with ctx.Err() when the context is already dead, and succeed otherwise.
func TestSSSPContextCancelled(t *testing.T) {
	g, grid := gridGraph(t, 8, 8, 11)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.SSSPContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SSSPContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := ix.SourcesBatchedContext(ctx, []int{0, 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SourcesBatchedContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := ix.DistToContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("DistToContext on cancelled ctx: err = %v, want context.Canceled", err)
	}

	// A live, cancellable context answers identically to the background one.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	want := mustSSSP(t, ix, 3)
	got, err := ix.SSSPContext(live, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if !approxEq(got[v], want[v]) {
			t.Fatalf("SSSPContext[%d] = %v want %v", v, got[v], want[v])
		}
	}
}

func approxEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-8*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func errAtf(format string, args ...any) error { return fmt.Errorf(format, args...) }
