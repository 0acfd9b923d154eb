package sepsp

import (
	"context"
	"fmt"
	"sync"

	"sepsp/internal/baseline"
	"sepsp/internal/graph"
	"sepsp/internal/obs"
)

// FallbackPolicy selects what happens when the separator engine cannot be
// trusted: the decomposition fails to build, the built index violates an
// invariant check (separator balance, shortcut-count bound, or a verified
// SSSP spot-check), or a query panics.
type FallbackPolicy int

const (
	// FallbackOff (default) fails fast: Build returns the error, and a
	// panicking query re-raises a *PanicError to the caller.
	FallbackOff FallbackPolicy = iota
	// FallbackBaseline degrades gracefully: queries are transparently
	// routed to the exact baseline engine (Dijkstra for nonnegative
	// weights, Bellman-Ford otherwise) — slower, but always correct and
	// always available. Engagements (once per cause) and routed queries
	// are counted by the index; a Telemetry given to Build as
	// Options.Telemetry, or attached to a Server over the index, reads
	// them as "sepsp_fallback_engaged_total" and
	// "sepsp_fallback_queries_total".
	FallbackBaseline
)

// fallbackEngine answers exact distance queries without any preprocessed
// structure. It is constructed once per Index when FallbackBaseline is
// selected and shared by every degraded query; all methods are safe for
// concurrent use.
type fallbackEngine struct {
	g      *graph.Digraph
	nonneg bool // all weights ≥ 0: Dijkstra applies

	revOnce sync.Once
	rev     *graph.Digraph // reverse graph, built lazily for distTo

	// The one place engagements and routed queries are counted, made by
	// Build. A reweighted index's engine takes over its predecessor's, so
	// the counts carry over an epoch swap and never fall; Telemetry reads
	// them at scrape time.
	engaged *obs.Counter
	queries *obs.Counter
}

// newFallbackEngine vets g for fallback service: baseline queries must
// never fail at request time, so any negative cycle is detected now (one
// super-source Bellman-Ford reaches every vertex, hence every cycle).
func newFallbackEngine(g *graph.Digraph, engaged, queries *obs.Counter) (*fallbackEngine, error) {
	nonneg := true
	g.Edges(func(_, _ int, w float64) bool {
		if w < 0 {
			nonneg = false
			return false
		}
		return true
	})
	if !nonneg {
		zero := make([]float64, g.N())
		if _, err := baseline.BellmanFordFrom(g, zero, nil); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNegativeCycle, err)
		}
	}
	return &fallbackEngine{g: g, nonneg: nonneg, engaged: engaged, queries: queries}, nil
}

// engage records one degradation cause (a build failure, an invariant
// violation, or a recovered panic).
func (f *fallbackEngine) engage() { f.engaged.Inc() }

func (f *fallbackEngine) note() { f.queries.Inc() }

// sssp answers one exact single-source query on the original graph. The
// construction-time negative-cycle check guarantees this cannot fail, and
// nonnegative graphs take the O(m log n) Dijkstra path.
func (f *fallbackEngine) sssp(g *graph.Digraph, src int) []float64 {
	f.note()
	var (
		dist []float64
		err  error
	)
	if f.nonneg {
		dist, err = baseline.Dijkstra(g, src, nil)
	} else {
		dist, err = baseline.BellmanFord(g, src, nil)
	}
	if err != nil {
		// Unreachable by construction; fail loudly rather than serve junk.
		panic(fmt.Sprintf("sepsp: fallback engine failed: %v", err))
	}
	return dist
}

// ssspCtx is sssp with a context check before and after the computation
// (the baselines themselves are not interruptible; a query is at most one
// baseline run late in observing cancellation).
func (f *fallbackEngine) ssspCtx(ctx context.Context, g *graph.Digraph, src int) ([]float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return f.sssp(g, src), nil
}

func (f *fallbackEngine) sources(ctx context.Context, srcs []int) ([][]float64, error) {
	out := make([][]float64, len(srcs))
	for i, s := range srcs {
		row, err := f.ssspCtx(ctx, f.g, s)
		if err != nil {
			return nil, err
		}
		out[i] = row
	}
	return out, nil
}

func (f *fallbackEngine) distTo(ctx context.Context, dst int) ([]float64, error) {
	f.revOnce.Do(func() { f.rev = f.g.Reverse() })
	return f.ssspCtx(ctx, f.rev, dst)
}
