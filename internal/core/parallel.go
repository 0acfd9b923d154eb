package core

import (
	"context"
	"math"
	"sync/atomic"

	"sepsp/internal/pram"
)

// parallelState is the shared per-query state of SSSPParallel's worker
// body; like waveState it lives in the pooled queryWS next to its cached
// executor closure, so a steady-state call allocates only its result.
type parallelState struct {
	bucket *Bucket
	cells  []uint64
}

// relax is the ForChunked body: worker owns head-runs [lo, hi) of the
// current bucket. The run's head distance is loaded atomically once and
// all-+Inf runs are skipped; both stay exact under concurrency because any
// value a worker reads is the weight of a real path (a stale read can only
// delay an improvement to a later phase, never invent one).
func (s *parallelState) relax(lo, hi int) {
	b := s.bucket
	cells := s.cells
	rle, to, ws := b.rle, b.to, b.w
	for r := lo; r < hi; r++ {
		du := math.Float64frombits(atomic.LoadUint64(&cells[rle[r].H]))
		if math.IsInf(du, 1) {
			continue
		}
		var start int32
		if r > 0 {
			start = rle[r-1].Hi
		}
		for j := start; j < rle[r].Hi; j++ {
			atomicMinFloat(&cells[to[j]], du+ws[j])
		}
	}
}

// SSSPParallel runs the §3.2 scheduled query with every phase's relaxations
// executed concurrently on the engine's executor — the within-phase
// parallelism that realizes the paper's O((ℓ + d_G)·log n) query time (each
// phase is one parallel round; the EREW min-combining contributes the log
// factor the round counter charges).
//
// Concurrent relaxations use an atomic min on the distance cells (CAS on
// the float bit pattern). Extra relaxations caused by same-phase visibility
// can only move a cell closer to the true distance — every written value is
// the weight of an actual path — so the result is exactly SSSP's, and so
// is the counted cost: Work is WorkPerSource and Rounds is Phases.
func (e *Engine) SSSPParallel(src int, st *pram.Stats) []float64 {
	dist, _ := e.SSSPParallelContext(nil, src, st)
	return dist
}

// SSSPParallelContext is SSSPParallel with cooperative cancellation (ctx
// polled between phases; nil skips polling). The atomic cell buffer comes
// from the engine's workspace pool, so the steady-state heap cost of a call
// is one allocation — the returned distance slice.
func (e *Engine) SSSPParallelContext(ctx context.Context, src int, st *pram.Stats) ([]float64, error) {
	n := e.g.N()
	ws := e.getWS()
	defer e.putWS(ws)
	cells := ws.growCells(n)
	inf := math.Float64bits(math.Inf(1))
	for i := range cells {
		cells[i] = inf
	}
	cells[src] = math.Float64bits(0)
	ps := &ws.pst
	*ps = parallelState{cells: cells}
	fn := ws.runFn()
	np := e.schedule.Phases()
	var work, rounds int64
	for i := 0; i < np; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				st.AddWork(work)
				st.AddRounds(rounds)
				return nil, err
			}
		}
		e.firePhase()
		_, b := e.schedule.PhaseAt(i)
		ps.bucket = b
		e.ex.ForChunked(len(b.rle), fn)
		work += int64(b.Edges())
		rounds++
	}
	st.AddWork(work)
	st.AddRounds(rounds)
	dist := make([]float64, n)
	for i, c := range cells {
		dist[i] = math.Float64frombits(c)
	}
	return dist, nil
}

// atomicMinFloat lowers *addr (a float64 bit pattern) to v if v is smaller,
// with a CAS retry loop; returns whether it wrote.
func atomicMinFloat(addr *uint64, v float64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if v >= math.Float64frombits(old) {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(v)) {
			return true
		}
	}
}
