package core

import (
	"context"
	"runtime"
	"sync/atomic"

	"sepsp/internal/matrix"
	"sepsp/internal/pram"
)

// SourcesBatched computes SSSP from every source of one wave: duplicate
// sources collapse to one computed row, and the distinct sources are split
// into lane blocks that the executor's workers relax through one pass of
// the phase schedule each (see SourcesBatchedContext). Rows are
// bit-identical to SSSP's.
func (e *Engine) SourcesBatched(srcs []int, st *pram.Stats) [][]float64 {
	out, _ := e.SourcesBatchedContext(nil, srcs, st)
	return out
}

// SourcesBatchedContext is SourcesBatched with cooperative cancellation:
// every block polls ctx between phases, so all workers wind down within
// one phase of a cancellation, blocks not yet started are never begun, and
// the call returns (nil, ctx.Err()). A panic in any worker stops the wave
// and is re-raised in the caller as a *pram.Panic carrying the worker's
// value and stack.
//
// The k distinct sources are cut into blocks of waveWidth(k, p) lanes,
// p the executor's workers or GOMAXPROCS if that is fewer — the blocks
// that can run at once — and one pram For round hands the blocks to the
// workers. A block of one lane is the solo query (runSchedule); a wider
// block relaxes a lane-major matrix whose row v holds vertex v's distance
// from each of the block's sources, so each pass over the schedule's
// edges serves all of them (runLanes). Each block draws its scratch from the engine's workspace
// pool: a steady-state wave allocates only its rows and their spine.
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
	s.width = waveWidth(k, min(e.ex.P(), runtime.GOMAXPROCS(0)))
	s.out = make([][]float64, k)
	s.err.Store(nil)
	defer s.release() // also on a re-raised worker panic
	e.ex.For((k+s.width-1)/s.width, ws.waveFn())
	if err := s.err.Load(); err != nil {
		return nil, *err
	}
	st.AddRounds(int64(e.schedule.Phases()))
	return s.out, nil
}

// waveWidth is the block size of a k-source wave when p blocks can run at
// once: 1 — solo queries — when there are no more sources than that, else
// the narrowest lane width that needs no more than p blocks, capped at
// matrix.MaxLanes. Per lane, a wider block is cheaper: one pass over the
// edges serves more sources, so blocks beyond those that can run at once
// only add passes. Rows do not depend on the width.
func waveWidth(k, p int) int {
	if k <= p {
		return 1
	}
	return laneWidth((k + p - 1) / p)
}

// laneWidth is the narrowest supported lane width holding m ≥ 2 lanes,
// capped at matrix.MaxLanes.
func laneWidth(m int) int {
	for _, w := range matrix.LaneWidths {
		if w >= m {
			return w
		}
	}
	return matrix.MaxLanes
}

// waveState is the shared state of one SourcesBatchedContext wave. It
// lives in the pooled queryWS beside its cached For closure, so
// dispatching a wave allocates nothing.
type waveState struct {
	e     *Engine
	ctx   context.Context
	srcs  []int
	width int // lanes per block; the last block may hold fewer
	out   [][]float64
	st    *pram.Stats
	err   atomic.Pointer[error]
}

// run answers block b of the wave into its result rows; once any block
// has failed, the remaining ones are drained without being computed.
func (s *waveState) run(b int) {
	if s.err.Load() != nil {
		return
	}
	lo := b * s.width
	hi := min(lo+s.width, len(s.srcs))
	var (
		work int64
		err  error
	)
	if hi-lo == 1 {
		dist := newDistVector(s.e.g.N())
		dist[s.srcs[lo]] = 0
		if work, _, err = s.e.runSchedule(s.ctx, dist); err == nil {
			s.out[lo] = dist
		}
	} else {
		work, err = s.e.runLanes(s.ctx, s.srcs[lo:hi], s.out[lo:hi])
	}
	s.st.AddWork(work)
	if err != nil {
		first := err // declared here so only a failing block allocates it
		s.err.CompareAndSwap(nil, &first)
	}
}

// release drops the wave's references to caller-owned values before the
// workspace returns to the pool.
func (s *waveState) release() {
	s.e, s.ctx, s.srcs, s.out, s.st = nil, nil, nil, nil, nil
}

// runLanes answers the m = len(srcs) ≥ 2 sources of one block into out
// (len(out) == m, rows allocated here) with one pass over the phase
// schedule. The block's distances live in a pooled lane-major matrix d of
// width laneWidth(m): d[v*width+l] is vertex v's distance from srcs[l], and
// the lanes past m stay +Inf and relax nothing. Each phase bucket is one
// matrix.LaneRelax call, which relaxes the bucket's edges in arena order in
// every lane, each head run with its head row read once — per lane, the
// solo query's update sequence, so every row is bit-identical to SSSP's.
// Polling, injection and observation are runPhases'; counted work is
// m × WorkPerSource for a completed block (padding lanes are not counted).
func (e *Engine) runLanes(ctx context.Context, srcs []int, out [][]float64) (work int64, err error) {
	width := laneWidth(len(srcs))
	n := e.g.N()
	ws := e.getWS()
	defer e.putWS(ws)
	d := ws.growInfs(n * width)
	for l, src := range srcs {
		d[src*width+l] = 0
	}
	work, _, err = e.runPhases(ctx, int64(len(srcs)), func(_ PhaseKind, b *Bucket) {
		matrix.LaneRelax(d, width, b.rle, b.to, b.w)
	})
	if err != nil {
		return work, err
	}
	for l := range srcs {
		row := make([]float64, n)
		for v := range row {
			row[v] = d[v*width+l]
		}
		out[l] = row
	}
	return work, nil
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
