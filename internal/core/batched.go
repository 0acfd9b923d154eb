package core

import (
	"context"
	"sync/atomic"

	"sepsp/internal/pram"
)

// SourcesBatched computes SSSP from every source of one wave: duplicate
// sources collapse to one computed row, and each distinct source runs as
// its own single-source query (the sequential kernels with run-delta
// tracking), the sources handed to the executor's workers one at a time.
// Rows are bit-identical to SSSP's; see SourcesBatchedContext for the cost
// accounting.
func (e *Engine) SourcesBatched(srcs []int, st *pram.Stats) [][]float64 {
	out, _ := e.SourcesBatchedContext(nil, srcs, st)
	return out
}

// SourcesBatchedContext is SourcesBatched with cooperative cancellation:
// every per-source query polls ctx between phases, so all workers wind
// down within one phase of a cancellation, sources not yet started are
// never begun, and the call returns (nil, ctx.Err()). A panic in any
// worker stops the wave and is re-raised in the caller as a *pram.Panic
// carrying the worker's value and stack.
//
// Workers pull sources from a shared atomic cursor (a pram For round), so
// a source that finishes early frees its worker for the next one instead
// of idling it behind a static chunk. Each query draws its scratch
// from the engine's workspace pool and writes straight into its result
// row: a steady-state wave allocates only its rows and their spine.
//
// Stats describe the wave as one lock-step sweep of its distinct sources:
// Work is the per-source sum (one WorkPerSource each) and Rounds is
// Phases. Each duplicate source adds its WorkPerSource to SkippedWork.
func (e *Engine) SourcesBatchedContext(ctx context.Context, srcs []int, st *pram.Stats) ([][]float64, error) {
	k := len(srcs)
	if k == 0 {
		return nil, nil
	}
	// Wave-level duplicate-source dedup: identical sources in one wave
	// collapse to a single computed row, and the vector is fanned back out
	// on output (later occurrences get independent copies, so every
	// returned row stays caller-owned). The duplicates' entire static
	// schedule cost is accounted as skipped work, preserving the audit
	// identity Work + SkippedWork = k × WorkPerSource. The detection scan
	// allocates nothing when all sources are distinct — the common case.
	if uniq, slot := dedupSources(srcs); uniq != nil {
		rows, err := e.SourcesBatchedContext(ctx, uniq, st)
		if err != nil {
			return nil, err
		}
		st.AddSkipped(int64(k-len(uniq)) * e.schedule.WorkPerSource())
		out := make([][]float64, k)
		seen := make([]bool, len(uniq))
		for j, u := range slot {
			if !seen[u] {
				out[j] = rows[u] // first occurrence owns the computed row
				seen[u] = true
				continue
			}
			row := make([]float64, len(rows[u]))
			copy(row, rows[u])
			out[j] = row
		}
		return out, nil
	}
	ws := e.getWS()
	defer e.putWS(ws)
	s := &ws.wave
	s.e, s.ctx, s.srcs, s.st = e, ctx, srcs, st
	s.out = make([][]float64, k)
	s.err.Store(nil)
	defer s.release() // also on a re-raised worker panic
	e.ex.For(k, ws.waveFn())
	if err := s.err.Load(); err != nil {
		return nil, *err
	}
	st.AddRounds(int64(e.schedule.Phases()))
	return s.out, nil
}

// waveState is the shared state of one SourcesBatchedContext wave. It
// lives in the pooled queryWS beside its cached For closure, so
// dispatching a wave allocates nothing.
type waveState struct {
	e    *Engine
	ctx  context.Context
	srcs []int
	out  [][]float64
	st   *pram.Stats
	err  atomic.Pointer[error]
}

// run answers source j of the wave into its result row; once any source
// has failed, the remaining ones are drained without being computed.
func (s *waveState) run(j int) {
	if s.err.Load() != nil {
		return
	}
	dist := newDistVector(s.e.g.N())
	dist[s.srcs[j]] = 0
	work, _, err := s.e.runSchedule(s.ctx, dist)
	s.st.AddWork(work)
	if err != nil {
		first := err // declared here so only a failing source allocates it
		s.err.CompareAndSwap(nil, &first)
		return
	}
	s.out[j] = dist
}

// release drops the wave's references to caller-owned values before the
// workspace returns to the pool.
func (s *waveState) release() {
	s.e, s.ctx, s.srcs, s.out, s.st = nil, nil, nil, nil, nil
}

// dedupDenseThreshold is the wave size up to which duplicate detection
// uses the quadratic pairwise scan (zero allocations, trivially fast at
// wave sizes); above it a map takes over.
const dedupDenseThreshold = 128

// dedupSources detects duplicate sources in one wave. It returns
// (nil, nil) — allocating nothing — when all sources are distinct, and
// otherwise the unique sources in first-occurrence order plus the
// index in uniq of each source in srcs.
func dedupSources(srcs []int) (uniq []int, slot []int) {
	k := len(srcs)
	dup := false
	if k <= dedupDenseThreshold {
		for i := 1; i < k && !dup; i++ {
			for j := 0; j < i; j++ {
				if srcs[j] == srcs[i] {
					dup = true
					break
				}
			}
		}
		if !dup {
			return nil, nil
		}
		uniq = make([]int, 0, k)
		slot = make([]int, k)
		for i, s := range srcs {
			at := -1
			for u, us := range uniq {
				if us == s {
					at = u
					break
				}
			}
			if at < 0 {
				at = len(uniq)
				uniq = append(uniq, s)
			}
			slot[i] = at
		}
		return uniq, slot
	}
	idx := make(map[int]int, k)
	slot = make([]int, k)
	uniq = make([]int, 0, k)
	for i, s := range srcs {
		u, ok := idx[s]
		if !ok {
			u = len(uniq)
			uniq = append(uniq, s)
			idx[s] = u
		} else {
			dup = true
		}
		slot[i] = u
	}
	if !dup {
		return nil, nil
	}
	return uniq, slot
}
