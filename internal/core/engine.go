package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sepsp/internal/augment"
	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// Algorithm selects the E+ construction strategy.
type Algorithm int

const (
	// Alg41 is Algorithm 4.1: leaves-up, O(d_G·log² n) time, lower work.
	Alg41 Algorithm = iota
	// Alg43 is Algorithm 4.3: simultaneous path doubling, O(d_G·log n + log² n)
	// time, an extra O(log n) factor of work.
	Alg43
)

// Config configures engine construction.
type Config struct {
	// Ex is the parallel executor (nil: sequential).
	Ex *pram.Executor
	// Algorithm selects Alg41 (default) or Alg43.
	Algorithm Algorithm
	// UseFloydWarshall switches per-node closures in Alg41 to Floyd-Warshall
	// (the sequential-work-optimal choice).
	UseFloydWarshall bool
	// PrepStats receives preprocessing work/round counts (nil discards).
	PrepStats *pram.Stats
	// Obs receives the counted cost of preprocessing and of every query
	// the engine answers into its registry (see metrics.go), and spans and
	// pprof labels when tracing is on (nil: fully disabled — queries take
	// the uninstrumented path).
	Obs *obs.Sink
	// Inject, when non-nil, fires at every Bellman-Ford phase boundary
	// (site faultinject.SiteQueryPhase) — the chaos-test hook. Production
	// leaves it nil and pays one dead branch per phase.
	Inject faultinject.Injector
	// Ctx, when non-nil, makes the E+ construction cancellable: it is
	// polled at the augmentation's outer-loop boundaries (tree levels for
	// Alg41, doubling iterations for Alg43) and a cancelled construction
	// returns ctx.Err(). Nil builds to completion.
	Ctx context.Context
	// Prev, when non-nil, is the engine this one replaces after a
	// reweight. If the graph has Prev's directed edges in Prev's order
	// (graph.Digraph.SameEdges) on Prev's tree, only Algorithm 4.1's or
	// 4.3's min-plus work reruns: the contributions are gathered into
	// Prev's E+ layout and scattered into a fresh weight arena that shares
	// every structural array of Prev's schedule. A pair that flips between
	// finite and +Inf lays E+ and the schedule out afresh. The engine is
	// identical either way.
	Prev *Engine
}

// Engine is a preprocessed shortest-path oracle for one digraph and one
// separator decomposition tree. Construction computes E+ (and fails with
// augment.ErrNegativeCycle if the graph has one); queries then answer
// single-source problems in Schedule.Phases() Bellman-Ford phases.
//
// After construction an Engine is immutable (SetInject excepted) and all
// query methods are safe for arbitrary concurrent use; per-query scratch
// that never escapes a call is recycled through an internal pool, so the
// steady-state allocation cost of a query is just its result slices.
type Engine struct {
	g        *graph.Digraph
	tree     *separator.Tree
	aug      *augment.Result
	schedule *Schedule
	ex       *pram.Executor
	obs      *obs.Sink
	qm       *queryMetrics // resolved from obs.Metrics; nil without one
	inj      faultinject.Injector

	wsPool sync.Pool // of *queryWS
}

// queryWS is the reusable per-query scratch handed out by the engine's
// pool: the +Inf-initialised float buffer of the sequential kernels and the
// shared state + cached executor closure of the wave. Only scratch that
// never escapes a query is pooled — result slices returned to callers are
// always freshly allocated.
type queryWS struct {
	// infs is the sequential kernels' +Inf-initialised buffer: a solo
	// query's run-delta tracker (per global run slot, the head distance at
	// the run's last relaxation; see relaxBucketTracked) or a wave block's
	// lane-major distance matrix (see runLanes). One query uses one of
	// them.
	infs []float64

	wave waveState
	wfn  func(j int) // cached closure over &wave (per-block body)
}

// growInfs returns n entries of the float buffer, every one reset to +Inf
// (the state before any relaxation), reusing capacity.
func (ws *queryWS) growInfs(n int) []float64 {
	if cap(ws.infs) < n {
		ws.infs = make([]float64, n)
	}
	p := ws.infs[:n]
	inf := math.Inf(1)
	for i := range p {
		p[i] = inf
	}
	return p
}

// waveFn returns the cached per-block closure for the wave round — created
// once per workspace so steady-state waves allocate no closures.
func (ws *queryWS) waveFn() func(j int) {
	if ws.wfn == nil {
		ws.wfn = func(j int) { ws.wave.run(j) }
	}
	return ws.wfn
}

func (e *Engine) getWS() *queryWS {
	ws, _ := e.wsPool.Get().(*queryWS)
	if ws == nil {
		ws = &queryWS{}
	}
	return ws
}

func (e *Engine) putWS(ws *queryWS) { e.wsPool.Put(ws) }

// NewEngine preprocesses g with the given decomposition tree.
func NewEngine(g *graph.Digraph, tree *separator.Tree, cfg Config) (*Engine, error) {
	ex := cfg.Ex
	if ex == nil {
		ex = pram.Sequential
	}
	acfg := augment.Config{Ex: ex, Stats: cfg.PrepStats, UseFloydWarshall: cfg.UseFloydWarshall, Obs: cfg.Obs, Ctx: cfg.Ctx}
	prev := cfg.Prev
	if prev != nil && (prev.tree != tree || !prev.g.SameEdges(g)) {
		prev = nil
	}
	if prev != nil {
		acfg.Prev = prev.aug
	}
	var (
		res *augment.Result
		err error
	)
	switch cfg.Algorithm {
	case Alg41:
		res, err = augment.Alg41(g, tree, acfg)
	case Alg43:
		res, err = augment.Alg43(g, tree, acfg)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", cfg.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	var eng *Engine
	if prev != nil && res.SharesLayout(prev.aug) {
		eng = &Engine{g: g, tree: tree, aug: res, schedule: prev.schedule.reweighted(g.EdgeList(), res.Edges), ex: ex}
	} else {
		eng = NewEngineFromParts(g, tree, res, ex)
	}
	if cfg.Obs != nil {
		recordPrep(cfg.Obs.Metrics, res)
		eng.obs = cfg.Obs
		eng.qm = newQueryMetrics(cfg.Obs.Metrics)
	}
	eng.inj = cfg.Inject
	return eng, nil
}

// NewEngineFromParts assembles an engine from an already-computed
// augmentation — the entry point for deserialized indexes. No
// recomputation or negative-cycle check happens here; the parts are
// trusted.
func NewEngineFromParts(g *graph.Digraph, tree *separator.Tree, res *augment.Result, ex *pram.Executor) *Engine {
	if ex == nil {
		ex = pram.Sequential
	}
	return &Engine{
		g:        g,
		tree:     tree,
		aug:      res,
		schedule: NewSchedule(tree, g.EdgeList(), res.Edges),
		ex:       ex,
	}
}

// Graph returns the underlying digraph.
func (e *Engine) Graph() *graph.Digraph { return e.g }

// Tree returns the decomposition tree.
func (e *Engine) Tree() *separator.Tree { return e.tree }

// Augmentation returns the computed E+.
func (e *Engine) Augmentation() *augment.Result { return e.aug }

// Schedule returns the query phase schedule.
func (e *Engine) Schedule() *Schedule { return e.schedule }

// SetInject attaches a phase-boundary fault injector to an already-
// assembled engine; nil detaches. Not safe to call concurrently with
// queries — wire it before serving.
func (e *Engine) SetInject(inj faultinject.Injector) { e.inj = inj }

// Injector returns the attached phase-boundary fault injector (nil if none).
func (e *Engine) Injector() faultinject.Injector { return e.inj }

// firePhase triggers the injector at a phase boundary (nil: no-op).
func (e *Engine) firePhase() {
	if e.inj != nil {
		e.inj.Fire(faultinject.SiteQueryPhase)
	}
}

// DiameterBound returns Theorem 3.1's bound on diam(G+).
func (e *Engine) DiameterBound() int { return augment.DiameterBound(e.tree) }

// SSSP computes distances from src to every vertex. st (optional) receives
// the counted relaxation work and phase rounds. The steady-state heap cost
// of a query is one allocation — the returned distance slice.
func (e *Engine) SSSP(src int, st *pram.Stats) []float64 {
	dist, _ := e.SSSPContext(nil, src, st)
	return dist
}

// SSSPContext is SSSP with cooperative cancellation: ctx is polled between
// Bellman-Ford phases, so a cancelled or expired context returns
// (nil, ctx.Err()) within one phase of relaxation work. A nil ctx skips
// the polling.
func (e *Engine) SSSPContext(ctx context.Context, src int, st *pram.Stats) ([]float64, error) {
	dist := newDistVector(e.g.N())
	dist[src] = 0
	work, rounds, err := e.runSchedule(ctx, dist)
	st.AddWork(work)
	st.AddRounds(rounds)
	if err != nil {
		return nil, err
	}
	return dist, nil
}

// SSSPFrom runs the scheduled Bellman-Ford from an arbitrary initial
// distance vector (entries may be +Inf). This generality serves the
// difference-constraint application (Section 1): a virtual super-source
// with zero-weight edges to every vertex is exactly the all-zeros initial
// vector, so no extra vertex — which would wreck the separator structure —
// is needed.
func (e *Engine) SSSPFrom(init []float64, st *pram.Stats) []float64 {
	if len(init) != e.g.N() {
		panic("core: initial vector size mismatch")
	}
	dist := make([]float64, len(init))
	copy(dist, init)
	work, rounds, _ := e.runSchedule(nil, dist)
	st.AddWork(work)
	st.AddRounds(rounds)
	return dist
}

// The sequential executor's kernels. Both relax one SoA phase bucket into
// dist. Per head-run, dist[head] is loaded once; that is exact because a
// run's own edges cannot lower its head (an improving self-loop would be a
// negative cycle, rejected at construction), so the cached value equals
// what a per-edge reload in the same order would read.
//
// relaxBucketDense is the single-sweep kernel (desc[L]/asc[L] buckets,
// each visited once per query): no tracking pays for itself there, so it
// only skips still-unreachable heads — du = +Inf relaxes nothing, because
// +Inf + w < x is false for every finite x and for x = +Inf. These buckets
// are the bulk of a query's relaxations, so the loop body stays
// store-minimal.
func relaxBucketDense(dist []float64, b *Bucket) {
	to, w := b.to, b.w
	lo := 0
	for _, hr := range b.rle {
		hi := int(hr.Hi)
		du := dist[hr.H]
		if math.IsInf(du, 1) {
			lo = hi
			continue
		}
		tt, ww := to[lo:hi], w[lo:hi]
		for j, wj := range ww {
			if d := du + wj; d < dist[tt[j]] {
				dist[tt[j]] = d
			}
		}
		lo = hi
	}
}

// relaxBucketTracked is the kernel of the repeatedly swept buckets (eAll,
// swept 2ℓ times, and same[L], swept once by the descending and once by the
// ascending sweep). prev is the query's run-delta tracker, one slot per
// global run (Bucket.runBase + r): prev holds dist[head] as of the run's
// last relaxation, and a run whose head is unchanged since then is skipped.
// The skip is exact: distances only decrease, so du == prev means every
// comparison du+w < dist[to] already failed with the same du against a
// dist[to] that can only have shrunk since — a guaranteed no-op. Slots
// start at +Inf, which subsumes the unreachable-head skip on the first
// sweep. Skipped runs still count as relaxations: counted work is the
// static schedule's (see DESIGN.md "Query performance").
func relaxBucketTracked(dist []float64, b *Bucket, prev []float64) {
	to, w := b.to, b.w
	pr := prev[b.runBase : int(b.runBase)+len(b.rle)]
	lo := 0
	for r, hr := range b.rle {
		hi := int(hr.Hi)
		du := dist[hr.H]
		if du == pr[r] {
			lo = hi
			continue
		}
		pr[r] = du
		tt, ww := to[lo:hi], w[lo:hi]
		for j, wj := range ww {
			if d := du + wj; d < dist[tt[j]] {
				dist[tt[j]] = d
			}
		}
		lo = hi
	}
}

// relaxPhase relaxes phase bucket b of kind k with the matching kernel.
func relaxPhase(dist []float64, k PhaseKind, b *Bucket, prev []float64) {
	switch k {
	case PhaseDesc, PhaseAsc: // single sweep, tracking can't pay
		relaxBucketDense(dist, b)
	default: // eAll and same[L]: swept more than once
		relaxBucketTracked(dist, b, prev)
	}
}

// runSchedule relaxes dist in place through the §3.2 phase schedule with
// the tracked and dense kernels (see runPhases for polling, injection,
// observation and the returned cost).
func (e *Engine) runSchedule(ctx context.Context, dist []float64) (work, rounds int64, err error) {
	ws := e.getWS()
	defer e.putWS(ws)
	prev := ws.growInfs(e.schedule.prevRuns)
	return e.runPhases(ctx, 1, func(k PhaseKind, b *Bucket) { relaxPhase(dist, k, b, prev) })
}

// runPhases runs one pass over the §3.2 phase schedule for lanes sources
// at once: per phase it polls ctx when non-nil, fires the phase-boundary
// injector and hands the phase's arena bucket to relax. It returns the
// counted work, lanes × the bucket's edges per phase, and rounds, one per
// phase (O(log n) EREW steps, see Section 2.2): the cost so far when ctx
// ends the run. Every phase runs, so a completed run costs lanes ×
// WorkPerSource and Phases. With a registry attached, the per-kind work
// and phase counters get what lanes solo queries would add; with tracing
// on, the run and each phase also get spans and pprof labels: counters
// count per source, spans per pass, and every span carries its lanes, so
// the lanes of a trace's query.phase spans sum to the phase counter. relax
// does not escape, and without tracing no span argument is built, so the
// uninstrumented and the metrics-only paths perform no heap allocation.
func (e *Engine) runPhases(ctx context.Context, lanes int64, relax func(PhaseKind, *Bucket)) (work, rounds int64, err error) {
	traced := e.obs.Traced()
	if traced {
		qs := e.obs.Span("query.sssp", "query", "phases", e.schedule.Phases(), "lanes", lanes)
		defer qs.End()
	}
	n := e.schedule.Phases()
	for i := 0; i < n; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				if e.qm != nil {
					e.qm.cancelled.Add(lanes)
				}
				return work, rounds, err
			}
		}
		e.firePhase()
		ph, b := e.schedule.PhaseAt(i)
		if traced {
			sp := e.obs.Span("query.phase", "query",
				"index", ph.Index, "kind", string(ph.Kind), "level", ph.Level, "edges", b.Edges(), "lanes", lanes)
			e.obs.Do(func() { relax(ph.Kind, b) }, "phase", string(ph.Kind))
			sp.End()
		} else {
			relax(ph.Kind, b)
		}
		if e.qm != nil {
			e.qm.work[ph.Kind].Add(lanes * int64(b.Edges()))
			e.qm.phases.Add(lanes)
		}
		work += lanes * int64(b.Edges())
		rounds++
	}
	return work, rounds, nil
}

// SSSPReference computes distances from src with the pre-optimization
// executor: a scalar loop that walks each arena run edge by edge, reloading
// dist[head] per edge, with no run skipping and no tracker — all
// 2ℓ+4(d_G+1) phases scan their full bucket. It relaxes the same canonical
// edge order as the optimized paths, so their results must be
// bit-identical; it is retained as the exactness oracle for the
// cross-executor fuzz target and as the baseline the E-query experiment
// measures speedup against.
func (e *Engine) SSSPReference(src int, st *pram.Stats) []float64 {
	dist := newDistVector(e.g.N())
	dist[src] = 0
	n := e.schedule.Phases()
	var work int64
	for i := 0; i < n; i++ {
		_, b := e.schedule.PhaseAt(i)
		lo := int32(0)
		for _, run := range b.rle {
			for j := lo; j < run.Hi; j++ {
				if du := dist[run.H]; du+b.w[j] < dist[b.to[j]] {
					dist[b.to[j]] = du + b.w[j]
				}
			}
			lo = run.Hi
		}
		work += int64(b.Edges())
	}
	st.AddWork(work)
	st.AddRounds(int64(n))
	return dist
}

// queuePool recycles TightTree's BFS queue, so a steady-state tree
// costs only its parent array.
var queuePool = sync.Pool{New: func() any { return new([]int) }}

// TightTree builds a shortest-path tree in g from exact distance values:
// parent[v] is v's predecessor on a minimum-weight src→v path using only
// edges of g (parent[src] = src, parent[unreachable] = -1). Because the
// distances are exact G-distances, the tree is recovered by a BFS over
// "tight" edges (dist[u] + w ≈ dist[v]) without any witness bookkeeping in
// the preprocessing. Tightness uses a relative tolerance to absorb
// floating-point reassociation between the shortcut path and the original
// path.
func TightTree(g *graph.Digraph, src int, dist []float64) []int {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	qp := queuePool.Get().(*[]int)
	queue := append((*qp)[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		g.Out(u, func(v int, w float64) bool {
			if parent[v] == -1 && tight(du+w, dist[v]) {
				parent[v] = u
				queue = append(queue, v)
			}
			return true
		})
	}
	*qp = queue
	queuePool.Put(qp)
	return parent
}

// tight reports a ≈ b with relative tolerance 1e-9 (both finite).
func tight(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// PathTo extracts the src→dst vertex sequence from a parent array produced
// by TightTree. ok is false if dst is unreachable.
func PathTo(parent []int, src, dst int) (path []int, ok bool) {
	if parent[dst] == -1 {
		return nil, false
	}
	for v := dst; ; v = parent[v] {
		path = append(path, v)
		if v == src {
			break
		}
		if len(path) > len(parent) {
			return nil, false // defensive: corrupt parent array
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

func newDistVector(n int) []float64 {
	d := make([]float64, n)
	inf := math.Inf(1)
	for i := range d {
		d[i] = inf
	}
	return d
}
