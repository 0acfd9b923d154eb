package sepsp

// Benchmarks for the concurrent serving layer: steady-state allocation
// counts of the pooled query paths (run with -benchmem; the regression
// tests in alloc_test.go enforce the bounds) and server throughput with and
// without wave coalescing.

import (
	"context"
	"sync"
	"testing"
)

func benchIndex(b *testing.B) (*Index, int) {
	b.Helper()
	g, grid := gridGraph(b, 32, 32, 1)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		b.Fatal(err)
	}
	return ix, grid.G.N()
}

// BenchmarkSSSPSteadyState measures the per-query cost of the pooled
// closure-free SSSP path; allocs/op should be 1 (the result slice).
func BenchmarkSSSPSteadyState(b *testing.B) {
	ix, n := benchIndex(b)
	ctx := context.Background()
	mustSSSP(b, ix, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SSSPContext(ctx, i%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSSPTreeSteadyState measures the tree query with pooled BFS
// scratch; allocs/op should be ~2 (dist, parent).
func BenchmarkSSSPTreeSteadyState(b *testing.B) {
	ix, n := benchIndex(b)
	ctx := context.Background()
	_, _, _ = ix.SSSPTreeContext(ctx, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = ix.SSSPTreeContext(ctx, i%n)
	}
}

// BenchmarkSourcesBatchedSteadyState measures a k=8 wave with the pooled
// k×n working buffer; allocs/op should be k+1.
func BenchmarkSourcesBatchedSteadyState(b *testing.B) {
	ix, n := benchIndex(b)
	srcs := make([]int, 8)
	for i := range srcs {
		srcs[i] = (i * 131) % n
	}
	ctx := context.Background()
	if _, err := ix.SourcesBatchedContext(ctx, srcs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SourcesBatchedContext(ctx, srcs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerThroughput drives the batching server with 8 concurrent
// clients; compare against BenchmarkServerNoBatch to see the coalescing win.
func BenchmarkServerThroughput(b *testing.B) {
	ix, n := benchIndex(b)
	srv, err := NewServer(ix, &ServerOptions{MaxBatch: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	const clients = 8
	var wg sync.WaitGroup
	per := b.N/clients + 1
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := srv.SSSP(context.Background(), (c*997+i*31)%n); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkServerNoBatch is the same load with MaxBatch=1 (every request
// its own wave) — the baseline the coalescing is measured against.
func BenchmarkServerNoBatch(b *testing.B) {
	ix, n := benchIndex(b)
	srv, err := NewServer(ix, &ServerOptions{MaxBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	const clients = 8
	var wg sync.WaitGroup
	per := b.N/clients + 1
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := srv.SSSP(context.Background(), (c*997+i*31)%n); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
