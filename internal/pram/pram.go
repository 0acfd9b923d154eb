// Package pram simulates the PRAM cost model used by the paper's analysis.
//
// The paper states its bounds on the EREW PRAM: an algorithm is characterized
// by its *time* (number of parallel steps with unbounded processors, i.e.
// span) and its *work* (total number of primitive operations). We reproduce
// both quantities deterministically:
//
//   - Work is counted explicitly by the algorithms via Stats.AddWork. Each
//     primitive relaxation / min-plus triple / word operation counts as one
//     unit, so counted work is independent of scheduling, GOMAXPROCS, and
//     wall clock.
//   - Time is counted in *rounds*: one call to Executor.For is one parallel
//     round in which every iteration would execute concurrently on a PRAM
//     with enough processors. Algorithms arrange their loops so that a round
//     corresponds to O(1) (or O(log n), documented per call site) PRAM steps
//     per element; Stats.AddRounds records the conversion.
//
// Executor actually runs a round on up to P workers, so wall-clock speedup
// with increasing P can be measured on real hardware, standing in for the
// paper's PRAM processors (the calibration hint for this reproduction:
// "goroutines simulate parallelism"). There is one round implementation:
// the caller works as worker slot 0 beside up to P-1 spawned goroutines,
// every worker takes indices from a shared atomic cursor, and the round's
// state is pooled. ForChunked and ForTiles2D are For rounds over chunk and
// tile indices.
package pram

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"sepsp/internal/faultinject"
)

// Stats accumulates PRAM cost measures. All methods are safe for concurrent
// use. The zero value is ready to use. A nil *Stats is also accepted by every
// method (the cost is discarded), so hot paths can pass through an optional
// collector without branching at call sites.
type Stats struct {
	work   atomic.Int64
	rounds atomic.Int64

	// skippedWork is work a caller proved redundant and did not execute
	// (a query wave's duplicate sources). Like work it is independent of
	// scheduling and GOMAXPROCS.
	skippedWork atomic.Int64
}

// AddWork adds n units of work.
func (s *Stats) AddWork(n int64) {
	if s != nil {
		s.work.Add(n)
	}
}

// AddRounds adds n parallel rounds (span units).
func (s *Stats) AddRounds(n int64) {
	if s != nil {
		s.rounds.Add(n)
	}
}

// AddSkipped adds work units that were avoided rather than executed.
func (s *Stats) AddSkipped(work int64) {
	if s != nil {
		s.skippedWork.Add(work)
	}
}

// SkippedWork returns the counted work avoided.
func (s *Stats) SkippedWork() int64 {
	if s == nil {
		return 0
	}
	return s.skippedWork.Load()
}

// Work returns the total counted work.
func (s *Stats) Work() int64 {
	if s == nil {
		return 0
	}
	return s.work.Load()
}

// Rounds returns the total counted parallel rounds.
func (s *Stats) Rounds() int64 {
	if s == nil {
		return 0
	}
	return s.rounds.Load()
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	if s != nil {
		s.work.Store(0)
		s.rounds.Store(0)
		s.skippedWork.Store(0)
	}
}

// Panic is the typed value an Executor re-raises in the calling goroutine
// when a worker goroutine panicked during a parallel loop: without the
// in-worker recovery a single panicking iteration would kill the whole
// process (a goroutine panic cannot be recovered from outside). The original
// panic value and the panicking goroutine's stack are preserved so upper
// layers can wrap them into their own typed errors.
type Panic struct {
	Value any    // the worker's original panic value
	Stack []byte // stack of the panicking worker goroutine
}

func (p *Panic) Error() string {
	return fmt.Sprintf("pram: worker panic: %v", p.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (p *Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Executor runs parallel-for loops on a bounded number of goroutines,
// simulating a PRAM with P processors. Each worker slot keeps a busy-
// iteration counter (one count per executed loop body), from which
// LoadStats derives the load imbalance of everything run on the executor.
//
// Worker panics do not crash the process: each worker recovers, the round
// starts no further index, the first captured panic is re-raised in the
// caller of For as a *Panic once the running indices finish, and the
// executor latches into a failed-but-queryable state — Failed/PanicCount/
// LastPanic report the history while the executor itself stays fully
// usable for subsequent rounds.
type Executor struct {
	p    int
	busy []atomic.Int64 // busy[w]: iterations executed by worker slot w

	inj       faultinject.Injector // nil in production: one dead branch
	panics    atomic.Int64
	lastPanic atomic.Pointer[Panic]
}

// NewExecutor returns an executor with p workers. p <= 0 selects
// runtime.GOMAXPROCS(0).
func NewExecutor(p int) *Executor {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return &Executor{p: p, busy: make([]atomic.Int64, p)}
}

// Sequential is a single-worker executor; loops run deterministically inline.
// It is shared process-wide, so no injector may ever be set on it.
var Sequential = NewExecutor(1)

// P returns the number of workers.
func (e *Executor) P() int { return e.p }

// SetInjector installs a fault injector fired as each worker of a round
// starts (site faultinject.SitePramWorker). Must be called before the
// executor runs its first loop and never on the shared Sequential executor.
func (e *Executor) SetInjector(inj faultinject.Injector) {
	if e == Sequential {
		panic("pram: cannot inject faults into the shared Sequential executor")
	}
	e.inj = inj
}

// Failed reports whether any worker panic has been recovered on this
// executor. A failed executor remains fully usable — the latch is
// observability, not a fuse.
func (e *Executor) Failed() bool { return e.panics.Load() > 0 }

// PanicCount returns the number of worker panics recovered so far.
func (e *Executor) PanicCount() int64 { return e.panics.Load() }

// LastPanic returns the most recently recovered worker panic (nil if none).
func (e *Executor) LastPanic() *Panic { return e.lastPanic.Load() }

// raise latches a captured worker panic on the executor and re-raises it
// in the calling goroutine.
func (e *Executor) raise(p *Panic) {
	e.panics.Add(1)
	e.lastPanic.Store(p)
	panic(p)
}

// fire triggers the injector at a worker's start; a nil injector is the
// production fast path.
func (e *Executor) fire() {
	if e.inj != nil {
		e.inj.Fire(faultinject.SitePramWorker)
	}
}

// WorkerIters returns a copy of the per-worker busy-iteration counters
// accumulated since construction (or the last ResetWorkerIters).
func (e *Executor) WorkerIters() []int64 {
	out := make([]int64, len(e.busy))
	for w := range e.busy {
		out[w] = e.busy[w].Load()
	}
	return out
}

// WorkerIter returns worker slot w's busy-iteration counter (0 when w is
// out of range). Allocation-free — the per-worker shape live telemetry
// gauges scrape on every /metrics hit, where WorkerIters' copy would cost
// P slices per scrape.
func (e *Executor) WorkerIter(w int) int64 {
	if w < 0 || w >= len(e.busy) {
		return 0
	}
	return e.busy[w].Load()
}

// ResetWorkerIters zeroes the busy-iteration counters.
func (e *Executor) ResetWorkerIters() {
	for w := range e.busy {
		e.busy[w].Store(0)
	}
}

// LoadStats summarizes worker load: the maximum and mean busy iterations
// per worker slot and their ratio. imbalance is 1 for a perfectly balanced
// (or single-worker, or idle) executor and grows with skew.
func (e *Executor) LoadStats() (max int64, mean float64, imbalance float64) {
	var total int64
	for w := range e.busy {
		v := e.busy[w].Load()
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 || len(e.busy) == 0 {
		return 0, 0, 1
	}
	mean = float64(total) / float64(len(e.busy))
	return max, mean, float64(max) / mean
}

// For executes fn(i) for every i in [0, n) as one parallel round: the
// calling goroutine works as slot 0 beside up to P-1 spawned workers, and
// each worker takes the next index from a shared atomic cursor until none
// is left, so an expensive index never strands its neighbours behind a
// static chunk. A round of one index, or on a one-worker executor, runs
// inline with no goroutine at all; a round issued from inside another
// round's body therefore starts on the worker that issued it. The round's
// bookkeeping comes from a pool, so a steady-state call allocates nothing.
// fn must be safe to call concurrently with distinct i; For returns after
// every started index has finished, with all of fn's writes visible to the
// caller. One busy iteration is charged per index.
//
// If fn panics, no further index is started, the executor latches the
// failure (Failed/LastPanic), and once the running indices finish the first
// panic is re-raised in the caller as a *Panic carrying the worker's stack
// — so a panicking iteration can never take down goroutines the caller
// does not own.
func (e *Executor) For(n int, fn func(i int)) {
	e.run(n, fn, nil, 0, 0)
}

// ForChunked executes fn(lo, hi) over a partition of [0, n) into at most P
// contiguous chunks of equal size (the last may be shorter), each chunk one
// index of a For round. It is the right primitive when the body keeps
// per-chunk state (e.g. a local work counter flushed once per chunk, to
// avoid per-iteration atomics). Each chunk charges its length to the busy
// counters; panic containment is For's.
func (e *Executor) ForChunked(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	size := (n + e.p - 1) / e.p
	e.run((n+size-1)/size, nil, fn, size, n)
}

// ForTiles2D executes fn(r0, r1, c0, c1) over the tiling of the rows×cols
// iteration space into tileR×tileC tiles, each tile one index of a For
// round. It is the scheduling primitive for cache-blocked matrix kernels:
// tiles whose cost collapses (e.g. all-+Inf panels skipped by the kernel)
// free their worker for the next tile, and a kernel whose matrix fits in a
// single tile runs inline on the calling worker. That is what lets
// intra-kernel tile parallelism compose with node-level parallelism across
// a separator-tree level: the many small kernels at deep levels each occupy
// exactly the worker already running their node, while the few large
// kernels near the root fan out across the executor.
//
// fn must be safe to call concurrently for distinct tiles (tiles are
// disjoint by construction). One busy iteration is charged per tile, and
// panic containment is For's.
func (e *Executor) ForTiles2D(rows, cols, tileR, tileC int, fn func(r0, r1, c0, c1 int)) {
	if rows <= 0 || cols <= 0 {
		return
	}
	if tileR <= 0 || tileC <= 0 {
		panic("pram: ForTiles2D requires positive tile sizes")
	}
	tilesC := (cols + tileC - 1) / tileC
	tilesR := (rows + tileR - 1) / tileR
	e.For(tilesR*tilesC, func(t int) {
		r0 := (t / tilesC) * tileR
		c0 := (t % tilesC) * tileC
		fn(r0, min(r0+tileR, rows), c0, min(c0+tileC, cols))
	})
}

// run is the one parallel round behind For and ForChunked: n indices, each
// either fn(i) or, when fn is nil, chunk(i*size, min((i+1)*size, total)).
func (e *Executor) run(n int, fn func(i int), chunk func(lo, hi int), size, total int) {
	if n <= 0 {
		return
	}
	r := roundPool.Get().(*round)
	r.e, r.n, r.fn, r.chunk, r.size, r.total = e, n, fn, chunk, size, total
	workers := min(e.p, n)
	r.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go r.spawned()
	}
	r.work(0)
	r.wg.Wait()
	p := r.panicked.Swap(nil)
	r.next.Store(0)
	r.slot.Store(0)
	r.e, r.fn, r.chunk = nil, nil, nil // retain nothing the caller owns
	roundPool.Put(r)
	if p != nil {
		e.raise(p)
	}
}

// round is the pooled state of one parallel round; spawned is a cached
// closure so starting a worker allocates nothing.
type round struct {
	e           *Executor
	n           int
	fn          func(i int)
	chunk       func(lo, hi int)
	size, total int
	next        atomic.Int64 // index cursor
	slot        atomic.Int64 // last worker slot handed to a spawned worker
	wg          sync.WaitGroup
	panicked    atomic.Pointer[Panic] // first panic of the round
	spawned     func()
}

var roundPool = sync.Pool{New: func() any {
	r := &round{}
	r.spawned = func() { r.work(int(r.slot.Add(1))) }
	return r
}}

// work drains the cursor as worker slot w. Busy iterations are counted
// locally and flushed once, also when an index panics.
func (r *round) work(w int) {
	var busy int64
	defer r.wg.Done()
	defer r.flush(w, &busy)
	defer r.capture()
	r.e.fire()
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n || r.panicked.Load() != nil {
			return
		}
		if r.fn != nil {
			r.fn(i)
			busy++
			continue
		}
		lo := i * r.size
		hi := min(lo+r.size, r.total)
		r.chunk(lo, hi)
		busy += int64(hi - lo)
	}
}

func (r *round) flush(w int, busy *int64) { r.e.busy[w].Add(*busy) }

// capture must be deferred inside a worker; it records the first panic of
// the round (with the worker's stack) instead of letting the runtime kill
// the process.
func (r *round) capture() {
	if v := recover(); v != nil {
		r.panicked.CompareAndSwap(nil, &Panic{Value: v, Stack: debug.Stack()})
	}
}
