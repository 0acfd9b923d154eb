// Package sepsp is a parallel shortest-path library for directed graphs
// with real edge weights that admit a separator decomposition, implementing
//
//	Edith Cohen, "Efficient Parallel Shortest-Paths in Digraphs with a
//	Separator Decomposition", SPAA 1993 (journal version: J. Algorithms
//	21(2):331–357, 1996).
//
// The library preprocesses a digraph into an Index by computing the paper's
// shortcut edge set E+ over a recursive separator decomposition of the
// graph's undirected skeleton. Afterwards:
//
//   - distances in the augmented graph equal distances in the original
//     graph, and
//   - every distance is realized by a path of O(log n) edges,
//
// so single-source queries run in O(log² n) parallel phases with
// near-linear work per source — in contrast to the Θ(n³)-work dense methods
// general digraphs require (the "transitive-closure bottleneck").
//
// # Quick start
//
//	g := sepsp.NewGraph(n)
//	g.AddEdge(u, v, w)                      // real weights, negatives OK
//	ix, err := sepsp.Build(g, nil)          // auto decomposition
//	dist, err := ix.SSSPContext(ctx, src)   // exact distances
//
// Structured graphs should pass their structure via Options.Decomposition:
// lattice coordinates (grids), point coordinates (geometric graphs), a tree
// decomposition (bounded treewidth), or a planar embedding; the
// decomposition quality determines the preprocessing/query work, per
// Table 1 of the paper.
//
// Negative edge weights are supported; Build fails with ErrNegativeCycle if
// the graph contains a negative-weight cycle (paper comment (i)).
package sepsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sepsp/internal/augment"
	"sepsp/internal/core"
	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
	"sepsp/internal/obs"
	"sepsp/internal/oracle"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// ErrNegativeCycle reports that the input graph contains a negative-weight
// cycle, making some distances undefined.
var ErrNegativeCycle = errors.New("sepsp: negative-weight cycle detected")

// Graph is a mutable edge-list digraph under construction. Vertices are
// dense integers 0..n-1.
type Graph struct {
	b *graph.Builder
}

// NewGraph returns an empty digraph on n vertices.
func NewGraph(n int) *Graph {
	return &Graph{b: graph.NewBuilder(n)}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.b.N() }

// AddEdge adds a directed edge u→v with weight w (negative allowed).
func (g *Graph) AddEdge(u, v int, w float64) { g.b.AddEdge(u, v, w) }

// AddBoth adds both directions with the same weight.
func (g *Graph) AddBoth(u, v int, w float64) { g.b.AddBoth(u, v, w) }

// Algorithm selects the preprocessing strategy of Section 4.
type Algorithm int

const (
	// LeavesUp is Algorithm 4.1 (default): lower work, O(d_G log² n) time.
	LeavesUp Algorithm = iota
	// Simultaneous is Algorithm 4.3: one log-factor faster in parallel
	// time, one log-factor more work.
	Simultaneous
)

// Options configures Build. The zero value (or nil) uses a BFS-layer
// separator decomposition, Algorithm 4.1, and sequential execution.
type Options struct {
	// Workers sets the goroutine-pool size simulating PRAM processors;
	// 0 = sequential, negative = GOMAXPROCS.
	Workers int
	// Algorithm picks the E+ construction.
	Algorithm Algorithm
	// LeafSize bounds decomposition leaves (default 8).
	LeafSize int

	// Decomposition selects the separator strategy, built with one of the
	// typed constructors (GridDecomposition, GeometricDecomposition,
	// TreeDecomposition, PlanarDecomposition). Nil selects the generic
	// BFS-layer finder.
	Decomposition *Decomposition

	// Telemetry, when non-nil, receives the counted cost of the build, of
	// every WithWeights epoch derived from the index and of every query on
	// them, in its registry: the E+ construction per tree level or
	// iteration, and each query's relaxations per §3.2 phase kind. The
	// index is attached at build, so the executor's worker gauges and the
	// fallback counters show on the Telemetry's /metrics without a Server.
	// With TelemetryOptions.Trace, the build and the queries also record
	// spans and run under pprof labels. Nil keeps the uninstrumented fast
	// path. It is independent of ServerOptions.Telemetry; a caller may pass
	// the same Telemetry to both.
	Telemetry *Telemetry

	// Fallback selects the graceful-degradation behavior: with
	// FallbackBaseline, a decomposition-build failure, an invariant
	// violation detected by the post-build self-check, or a recovered
	// query panic routes queries to the exact baseline engine instead of
	// failing (see FallbackPolicy). The default FallbackOff fails fast.
	Fallback FallbackPolicy

	// Inject, when non-nil, wires the deterministic fault-injection
	// harness (internal/faultinject) into the executor's worker
	// boundaries and the engine's phase boundaries. Chaos testing only;
	// production leaves it nil and pays one dead branch per hook.
	Inject faultinject.Injector
}

func (o *Options) executor() *pram.Executor {
	if o == nil || o.Workers == 0 {
		if o != nil && (o.Telemetry != nil || o.Inject != nil) {
			// A private executor so the Telemetry's worker gauges reflect
			// this index only, not the shared Sequential pool — and so
			// injected faults can never reach the shared pool.
			ex := pram.NewExecutor(1)
			if o.Inject != nil {
				ex.SetInjector(o.Inject)
			}
			return ex
		}
		return pram.Sequential
	}
	ex := pram.NewExecutor(o.Workers)
	if o.Inject != nil {
		ex.SetInjector(o.Inject)
	}
	return ex
}

// Validate checks the Options for the misconfigurations Build would reject
// — a Decomposition built from inconsistent inputs, a zero Decomposition
// value — and returns an error wrapping ErrBadOptions (nil for a valid or
// nil Options). Build runs the same checks; Validate lets callers fail fast
// before paying for graph construction.
func (o *Options) Validate() error {
	_, err := o.finder()
	return err
}

func (o *Options) finder() (separator.Finder, error) {
	if o == nil || o.Decomposition == nil {
		return &separator.BFSFinder{}, nil
	}
	d := o.Decomposition
	if d.err != nil {
		return nil, d.err
	}
	if d.finder == nil {
		return nil, fmt.Errorf("%w: zero Decomposition value (use a constructor)", ErrBadOptions)
	}
	return d.finder, nil
}

// Stats summarizes a built index.
type Stats struct {
	// PrepWork / PrepRounds: counted PRAM work and parallel rounds of the
	// preprocessing (E+ construction).
	PrepWork   int64
	PrepRounds int64
	// Shortcuts is |E+| after deduplication.
	Shortcuts int
	// TreeHeight is d_G, MaxSeparator the largest |S(t)|.
	TreeHeight   int
	MaxSeparator int
	// DiameterBound is Theorem 3.1's bound 4·d_G + 2ℓ + 1 on diam(G+).
	DiameterBound int
	// QueryPhases / QueryWork: per-source phase count and relaxation count
	// of the Section 3.2 schedule.
	QueryPhases int
	QueryWork   int64

	// Degraded reports that the index serves from the exact baseline
	// fallback engine instead of the separator engine (see FallbackPolicy);
	// the preprocessing-cost fields above are zero in that case.
	Degraded bool

	// PhaseBreakdown splits QueryPhases/QueryWork by position in the §3.2
	// bitonic schedule (always populated; sums reproduce the totals).
	PhaseBreakdown []PhaseStat
	// Levels is the per-tree-level preprocessing breakdown of the LeavesUp
	// algorithm, filled by every Build and WithWeights; its rows sum to
	// PrepWork and PrepRounds. Nil for Simultaneous (Algorithm 4.3
	// interleaves all levels), for an index whose build failed over to
	// the fallback engine, and for a loaded index.
	Levels []LevelStat
}

// LevelStat attributes preprocessing cost to one separator-tree level.
type LevelStat struct {
	// Level is the tree depth (0 = root).
	Level int
	// Nodes is the number of tree nodes on this level.
	Nodes int
	// Work / Rounds are the counted PRAM cost of processing the level.
	Work   int64
	Rounds int64
	// Shortcuts is the level's E+ pair contributions before any
	// deduplication: the levels sum to the raw contribution count, which
	// is at least Stats.Shortcuts.
	Shortcuts int64
}

// PhaseStat attributes per-source query cost to one kind of schedule phase.
type PhaseStat struct {
	// Kind is the schedule position: ell-pre, same-down, desc, asc,
	// same-up, ell-post.
	Kind string
	// Phases is how many phases of this kind one query runs.
	Phases int
	// Work is the relaxations one query performs across them.
	Work int64
}

// Index is a preprocessed shortest-path oracle.
//
// An Index is safe for arbitrary concurrent use: queries share immutable
// preprocessed state, per-query scratch is pooled inside the engine, and
// the two lazily built auxiliary engines (DistToContext's reverse engine
// and the pair oracle) are initialized exactly once under sync.Once —
// concurrent first callers block until the one preprocessing run finishes
// and then share its result. For admission control and cross-request
// batching on top of an Index, see Server.
//
// Panics inside a query never escape as process crashes of goroutines the
// caller does not own: the executor's workers recover and re-raise in the
// querying goroutine, where error-returning methods convert them to a
// *PanicError and, when Options.Fallback is FallbackBaseline, the query is
// transparently re-answered by the exact baseline engine. The Index stays
// fully usable for subsequent queries either way.
type Index struct {
	eng   *core.Engine   // nil when the decomposition failed and fallback engaged
	g     *graph.Digraph // always non-nil
	ex    *pram.Executor
	alg   core.Algorithm
	stats Stats
	sink  *obs.Sink // Options.Telemetry's sink, nil without one

	// epoch is the index's generation tag in an epoch-versioned lifecycle
	// (see Manager): 0 for an unmanaged index, stamped when a Manager
	// adopts or rebuilds it. Atomic because adoption may race a concurrent
	// Save on an already-shared index. Save/Load round-trip it.
	epoch atomic.Uint64

	fb       *fallbackEngine // non-nil iff built with FallbackBaseline
	degraded atomic.Bool     // latched: route every query to fb

	revOnce sync.Once
	revEng  *core.Engine // built lazily (reverse-graph queries)
	revErr  error

	oracleOnce sync.Once
	oracleErr  error
	oracle     atomic.Pointer[Oracle] // set once BuildOracle succeeds; read by Dist
}

// primary reports whether the separator engine serves queries (false once
// the index has degraded to the baseline fallback).
func (ix *Index) primary() bool { return ix.eng != nil && !ix.degraded.Load() }

// Degraded reports whether the index is serving from the baseline fallback
// engine instead of the separator engine — because the decomposition failed
// to build or the post-build self-check found an invariant violation.
// Transient per-query fallbacks (recovered panics) do not latch this.
func (ix *Index) Degraded() bool { return !ix.primary() }

// Epoch returns the index's generation tag in an epoch-versioned lifecycle:
// 0 for an index built (or persisted) outside a Manager, otherwise the
// monotonically increasing epoch the owning Manager stamped before
// publishing it. Save and Load round-trip the tag.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// degrade latches the index into fallback serving and counts the cause.
func (ix *Index) degrade() {
	ix.fb.engage()
	ix.degraded.Store(true)
}

// Build preprocesses the graph. It consumes the Graph's current edge set;
// later AddEdge calls do not affect the returned Index. It is
// BuildContext with a background context.
func Build(g *Graph, opt *Options) (*Index, error) {
	return BuildContext(context.Background(), g, opt)
}

// BuildContext preprocesses the graph, like Build, with cooperative
// cancellation of the expensive E+ construction: ctx is polled at the
// augmentation's outer-loop boundaries (tree levels for Algorithm 4.1,
// doubling iterations for Algorithm 4.3), and a cancelled build returns
// (nil, ctx.Err()) within one level or iteration of work. Cancellation is
// not a preprocessing failure: it never engages the baseline fallback,
// even with Options.Fallback == FallbackBaseline.
//
// Edge weights must not be NaN or -Inf (ErrInvalidWeight); +Inf weights are
// legal and equivalent to the edge being absent. With
// Options.Fallback == FallbackBaseline, preprocessing failures other than
// ErrBadOptions/ErrNegativeCycle/ErrInvalidWeight yield a degraded — exact
// but decomposition-less — Index instead of an error, and the built index
// is self-checked (separator balance, shortcut-count bound, verified SSSP
// spot-check) before it is trusted.
func BuildContext(ctx context.Context, g *Graph, opt *Options) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := g.b.CheckWeights(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidWeight, err)
	}
	dg := g.b.Build()
	finder, err := opt.finder()
	if err != nil {
		return nil, err
	}
	leaf := 0
	alg := core.Alg41
	policy := FallbackOff
	var inj faultinject.Injector
	if opt != nil {
		leaf = opt.LeafSize
		if opt.Algorithm == Simultaneous {
			alg = core.Alg43
		}
		policy = opt.Fallback
		inj = opt.Inject
	}
	var tel *Telemetry
	if opt != nil {
		tel = opt.Telemetry
	}
	var fb *fallbackEngine
	if policy == FallbackBaseline {
		// Vet the graph for fallback service up front: a negative cycle
		// makes distances undefined for every engine, so it stays an error.
		if fb, err = newFallbackEngine(dg, obs.NewCounter(), obs.NewCounter()); err != nil {
			return nil, err
		}
	}
	ex := opt.executor()
	ix, err := buildPrimary(ctx, dg, finder, leaf, alg, ex, tel.engineSink(), inj)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			// A cancelled build is the caller's decision, not a failure —
			// never degrade to the fallback over it.
			return nil, err
		}
		if fb == nil || errors.Is(err, ErrNegativeCycle) {
			return nil, err
		}
		// Graceful degradation: no decomposition, but every query still
		// gets an exact answer from the baseline engine.
		fb.engage()
		ix = &Index{g: dg, ex: ex, alg: alg, sink: tel.engineSink(), fb: fb}
		ix.degraded.Store(true)
	} else {
		ix.fb = fb
		if fb != nil {
			if cerr := ix.selfCheck(); cerr != nil {
				ix.degrade()
			}
		}
	}
	tel.attachIndex(ix)
	return ix, nil
}

// buildPrimary runs the separator preprocessing with a panic guard: a panic
// anywhere in decomposition or E+ construction surfaces as a *PanicError
// instead of crashing the caller, so Build can degrade or report it.
func buildPrimary(ctx context.Context, dg *graph.Digraph, finder separator.Finder, leaf int, alg core.Algorithm,
	ex *pram.Executor, sink *obs.Sink, inj faultinject.Injector) (ix *Index, err error) {
	defer func() {
		if r := recover(); r != nil {
			ix, err = nil, newPanicError("build", r)
		}
	}()
	sk := graph.NewSkeleton(dg)
	tree, err := separator.Build(sk, finder, separator.Options{LeafSize: leaf})
	if err != nil {
		return nil, err
	}
	prep := &pram.Stats{}
	eng, err := core.NewEngine(dg, tree, core.Config{Ex: ex, Algorithm: alg, PrepStats: prep, Obs: sink, Inject: inj, Ctx: ctx})
	if err != nil {
		if errors.Is(err, augment.ErrNegativeCycle) {
			return nil, fmt.Errorf("%w: %v", ErrNegativeCycle, err)
		}
		return nil, err
	}
	return &Index{eng: eng, g: dg, ex: ex, alg: alg, sink: sink, stats: engineStats(eng, prep)}, nil
}

// engineStats is the Stats of an engine whose E+ construction counted
// into prep.
func engineStats(eng *core.Engine, prep *pram.Stats) Stats {
	tree := eng.Tree()
	return Stats{
		PrepWork:       prep.Work(),
		PrepRounds:     prep.Rounds(),
		Shortcuts:      len(eng.Augmentation().Edges),
		TreeHeight:     tree.Height,
		MaxSeparator:   tree.MaxSeparatorSize(),
		DiameterBound:  eng.DiameterBound(),
		QueryPhases:    eng.Schedule().Phases(),
		QueryWork:      eng.Schedule().WorkPerSource(),
		PhaseBreakdown: phaseBreakdown(eng.Schedule()),
		Levels:         levelBreakdown(eng.Augmentation().Levels, tree),
	}
}

// selfCheck validates the built index against the paper's own invariants
// before it is trusted to serve: separator progress/balance, the shortcut-
// count bound (E+ pairs only connect separator vertices to vertices of
// their node's subgraph, so |E+| ≤ 2·Σ_t |S(t)|·|V(t)|), and a verified
// SSSP spot-check from sampled sources (Thm 4.1: E+ preserves distances and
// caps shortest-path hop count at 4·d_G + 2ℓ + 1 — if either fails, the
// scheduled Bellman-Ford returns wrong distances, which VerifyDistances
// certifies against the original graph). Runs under a panic guard; any
// violation or panic is returned as an error.
func (ix *Index) selfCheck() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError("selfcheck", r)
		}
	}()
	// The spot-check queries validate the decomposition, not the chaos
	// harness: suspend phase-boundary injection so a deliberately injected
	// query fault cannot masquerade as a build-time invariant violation.
	if inj := ix.eng.Injector(); inj != nil {
		ix.eng.SetInject(nil)
		defer ix.eng.SetInject(inj)
	}
	tree := ix.eng.Tree()
	var pairBound int64
	for i := range tree.Nodes {
		nd := &tree.Nodes[i]
		pairBound += int64(len(nd.S)) * int64(len(nd.V))
		if nd.IsLeaf() {
			continue
		}
		for _, c := range nd.Children {
			if c >= 0 && len(tree.Nodes[c].V) >= len(nd.V) {
				return fmt.Errorf("sepsp: separator balance violated at node %d: child %d not smaller (%d ≥ %d)",
					nd.ID, c, len(tree.Nodes[c].V), len(nd.V))
			}
		}
	}
	if sc := int64(len(ix.eng.Augmentation().Edges)); sc > 2*pairBound {
		return fmt.Errorf("sepsp: shortcut count %d exceeds the structural bound %d", sc, 2*pairBound)
	}
	for _, src := range sampleSources(ix.g.N()) {
		dist := ix.eng.SSSP(src, nil)
		if verr := core.VerifyDistances(ix.g, src, dist, 1e-9); verr != nil {
			return fmt.Errorf("sepsp: SSSP spot-check from source %d failed: %w", src, verr)
		}
	}
	return nil
}

// sampleSources picks up to three deterministic, distinct spot-check
// sources spread across the vertex range.
func sampleSources(n int) []int {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return []int{0}
	case n == 2:
		return []int{0, 1}
	}
	return []int{0, n / 2, n - 1}
}

// phaseBreakdown converts the schedule's static cost split into the public
// Stats shape.
func phaseBreakdown(s *core.Schedule) []PhaseStat {
	var out []PhaseStat
	for _, pw := range s.Breakdown() {
		out = append(out, PhaseStat{Kind: string(pw.Kind), Phases: pw.Phases, Work: pw.Work})
	}
	return out
}

// levelBreakdown converts Algorithm 4.1's per-level counts into the public
// Stats shape (nil for Algorithm 4.3, which returns none).
func levelBreakdown(levels []augment.Stage, tree *separator.Tree) []LevelStat {
	if levels == nil {
		return nil
	}
	out := make([]LevelStat, len(levels))
	for L, st := range levels {
		out[L] = LevelStat{Level: L, Work: st.Work, Rounds: st.Rounds, Shortcuts: st.Contributions}
	}
	for i := range tree.Nodes {
		out[tree.Nodes[i].Level].Nodes++
	}
	return out
}

// Stats returns preprocessing and query cost summaries.
func (ix *Index) Stats() Stats {
	st := ix.stats
	st.Degraded = ix.Degraded()
	return st
}

// RenderDecomposition pretty-prints the separator decomposition tree (one
// node per line, indented by depth) preceded by a one-line summary — the
// textual analogue of the paper's Figure 1. A fully degraded index has no
// decomposition; a one-line notice is rendered instead.
func (ix *Index) RenderDecomposition() string {
	if ix.eng == nil {
		return "degraded: no separator decomposition (serving from baseline fallback)"
	}
	tree := ix.eng.Tree()
	return tree.Summary() + "\n" + tree.Render(nil)
}

// Verify checks a distance certificate produced by SSSP against the
// indexed graph (see internal/core.VerifyDistances); useful when consuming
// persisted or externally transported results. An out-of-range src fails
// with an error wrapping ErrBadOptions.
func (ix *Index) Verify(src int, dist []float64) error {
	if err := checkVertex(ix.g.N(), src, "source"); err != nil {
		return err
	}
	return core.VerifyDistances(ix.g, src, dist, 1e-9)
}

// fallbackFor classifies a primary-path error: a recovered panic with a
// fallback engine available is absorbed (counted as an engagement, query
// rerouted to the baseline); everything else propagates to the caller.
func (ix *Index) fallbackFor(err error) bool {
	var pe *PanicError
	if ix.fb == nil || !errors.As(err, &pe) {
		return false
	}
	ix.fb.engage()
	return true
}

// runGuarded is THE query panic guard: it executes primary and converts a
// panic anywhere below (executor workers re-raise in the querying
// goroutine) into a *PanicError instead of unwinding the caller. Every
// public query method funnels through it, so the recover policy lives in
// exactly one place; the historical per-method *Guard/*CtxGuard helpers
// collapsed into this one function.
func runGuarded[T any](op string, primary func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out, err = zero, newPanicError(op, r)
		}
	}()
	return primary()
}

// checkVertex rejects a vertex outside [0,n) with an error wrapping
// ErrBadOptions that names its role ("source", "destination"). Queries
// call it before any work, so a bad vertex never reaches the engines or
// the fallback's panic guard.
func checkVertex(n, v int, role string) error {
	if v < 0 || v >= n {
		return fmt.Errorf("%w: %s vertex %d out of range [0,%d)", ErrBadOptions, role, v, n)
	}
	return nil
}

// checkPair is checkVertex for both endpoints of a point query.
func checkPair(n, u, v int) error {
	if err := checkVertex(n, u, "source"); err != nil {
		return err
	}
	return checkVertex(n, v, "destination")
}

// SSSPContext computes exact distances from src to every vertex (+Inf
// where unreachable) with cooperative cancellation: ctx is polled between
// Bellman-Ford phases, so a cancelled or expired context returns
// (nil, ctx.Err()) within one phase of relaxation work. An out-of-range
// src fails with an error wrapping ErrBadOptions.
func (ix *Index) SSSPContext(ctx context.Context, src int) ([]float64, error) {
	if err := checkVertex(ix.g.N(), src, "source"); err != nil {
		return nil, err
	}
	if ix.primary() {
		dist, err := runGuarded("sssp", func() ([]float64, error) {
			return ix.eng.SSSPContext(ctx, src, nil)
		})
		if err == nil || !ix.fallbackFor(err) {
			return dist, err
		}
	}
	return ix.fb.ssspCtx(ctx, ix.fb.g, src)
}

// SourcesBatchedContext computes SSSP from many sources as one wave — the
// distinct sources split into lane blocks across the workers, each block
// relaxed through one pass of the query schedule for all of its sources —
// with cooperative cancellation (every running block polls ctx between
// phases); each row equals SSSPContext from that source, bit for bit.
// An out-of-range source fails the whole wave with an error wrapping
// ErrBadOptions before any work runs.
func (ix *Index) SourcesBatchedContext(ctx context.Context, srcs []int) ([][]float64, error) {
	for _, s := range srcs {
		if err := checkVertex(ix.g.N(), s, "source"); err != nil {
			return nil, err
		}
	}
	return ix.sourcesBatchedStats(ctx, srcs, nil)
}

// sourcesBatchedStats is SourcesBatchedContext with an optional PRAM cost
// collector: st (nil to skip) receives the wave's executed work and the
// work its duplicate-source dedup avoided, which serving telemetry
// surfaces. Queries degraded to the baseline fallback record nothing — the
// fallback runs no schedule.
func (ix *Index) sourcesBatchedStats(ctx context.Context, srcs []int, st *pram.Stats) ([][]float64, error) {
	if ix.primary() {
		rows, err := runGuarded("sources", func() ([][]float64, error) {
			return ix.eng.SourcesBatchedContext(ctx, srcs, st)
		})
		if err == nil || !ix.fallbackFor(err) {
			return rows, err
		}
	}
	return ix.fb.sources(ctx, srcs)
}

// DistContext returns the distance from u to v. When the pair oracle has
// been built (BuildOracle), the answer costs O(n^μ) label-merge work;
// otherwise it runs SSSPContext from u and discards all but one entry —
// callers with many pair queries should either BuildOracle once or batch
// sources through SSSPContext/SourcesBatchedContext. An out-of-range u or
// v fails with an error wrapping ErrBadOptions before any work.
func (ix *Index) DistContext(ctx context.Context, u, v int) (float64, error) {
	if err := checkPair(ix.g.N(), u, v); err != nil {
		return 0, err
	}
	if o := ix.oracle.Load(); o != nil {
		return o.o.Dist(u, v, nil), nil
	}
	dist, err := ix.SSSPContext(ctx, u)
	if err != nil {
		return 0, err
	}
	return dist[v], nil
}

// SSSPTreeContext returns SSSPContext's distances plus a shortest-path
// tree in the original graph: parent[v] is the predecessor of v on a
// minimum-weight src→v path (parent[src] = src; -1 for unreachable
// vertices). The tree is derived from the exact distances by a BFS over
// tight edges, so it needs no bookkeeping in the query.
func (ix *Index) SSSPTreeContext(ctx context.Context, src int) (dist []float64, parent []int, err error) {
	dist, err = ix.SSSPContext(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	return dist, core.TightTree(ix.g, src, dist), nil
}

// PathContext returns a minimum-weight path from src to dst as a vertex
// sequence, with its weight; ok is false when dst is unreachable. An
// out-of-range src or dst fails with an error wrapping ErrBadOptions
// before any work.
func (ix *Index) PathContext(ctx context.Context, src, dst int) (path []int, w float64, ok bool, err error) {
	if err := checkPair(ix.g.N(), src, dst); err != nil {
		return nil, 0, false, err
	}
	dist, parent, err := ix.SSSPTreeContext(ctx, src)
	if err != nil {
		return nil, 0, false, err
	}
	if path, ok = core.PathTo(parent, src, dst); !ok {
		return nil, 0, false, nil
	}
	return path, dist[dst], true, nil
}

// Reachable returns the set of vertices reachable from src: v is in it
// exactly when SSSPContext from src gives v a finite distance. It is that
// one distance query, so a +Inf-weight edge counts as absent, exactly as in
// SSSPContext and PathContext; errors, panics and fallback are
// SSSPContext's, and an index built with a tracing Telemetry records one
// query.sssp span per call. An out-of-range src fails with an error
// wrapping ErrBadOptions.
func (ix *Index) Reachable(src int) ([]bool, error) {
	dist, err := ix.SSSPContext(context.Background(), src)
	if err != nil {
		return nil, err
	}
	set := make([]bool, len(dist))
	for v, d := range dist {
		set[v] = !math.IsInf(d, 1)
	}
	return set, nil
}

// Oracle is a compact all-pairs distance representation: O(n^{1+μ}) space,
// exact answers in O(n^μ) work per pair — the library's generalization of
// the paper's Section 6 compact routing tables (hub labels over ancestor
// separators).
type Oracle struct {
	o  *oracle.Oracle
	ex *pram.Executor // the index's executor, which answers Pairs
}

// BuildOracle preprocesses the pair-query oracle from the index. The
// preprocessing runs exactly once per Index regardless of how many callers
// race here — they all receive the same shared *Oracle (which is itself
// safe for concurrent queries). Once built, the oracle also serves
// Index.DistContext.
func (ix *Index) BuildOracle() (o *Oracle, err error) {
	if !ix.primary() {
		return nil, fmt.Errorf("%w: the pair oracle needs the separator index", ErrDegraded)
	}
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, newPanicError("oracle", r)
		}
	}()
	ix.oracleOnce.Do(func() {
		o, err := oracle.New(ix.eng, ix.ex, nil)
		if err != nil {
			ix.oracleErr = err
			return
		}
		ix.oracle.Store(&Oracle{o: o, ex: ix.ex})
	})
	if ix.oracleErr != nil {
		return nil, ix.oracleErr
	}
	return ix.oracle.Load(), nil
}

// Dist returns the exact distance from u to v. An out-of-range u or v
// fails with an error wrapping ErrBadOptions.
func (o *Oracle) Dist(u, v int) (float64, error) {
	if err := checkPair(o.o.N(), u, v); err != nil {
		return 0, err
	}
	return o.o.Dist(u, v, nil), nil
}

// Pairs answers a batch of pair queries on the index's Options.Workers
// workers. Every pair is checked before any work: one out-of-range endpoint
// fails the whole batch with an error wrapping ErrBadOptions.
func (o *Oracle) Pairs(pairs [][2]int) ([]float64, error) {
	for _, p := range pairs {
		if err := checkPair(o.o.N(), p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return o.o.Pairs(pairs, o.ex, nil), nil
}

// LabelEntries reports the total hub-label storage (O(n^{1+μ}) entries).
func (o *Oracle) LabelEntries() int { return o.o.LabelSize() }

// DistToContext returns, for every vertex u, the distance FROM u TO dst,
// with cooperative cancellation of the reverse query. It runs one query on
// the reversed graph; the decomposition tree is reused as-is because it
// depends only on the undirected skeleton (paper comment (iv)), which edge
// reversal preserves. The reverse engine is preprocessed exactly once on
// first use (concurrent first callers block on the one run; the one-time
// preprocessing itself is not interrupted by ctx). An out-of-range dst
// fails with an error wrapping ErrBadOptions.
func (ix *Index) DistToContext(ctx context.Context, dst int) ([]float64, error) {
	if err := checkVertex(ix.g.N(), dst, "destination"); err != nil {
		return nil, err
	}
	if ix.primary() {
		dist, err := runGuarded("distto", func() ([]float64, error) {
			if err := ix.reverseEngine(); err != nil {
				return nil, err
			}
			return ix.revEng.SSSPContext(ctx, dst, nil)
		})
		if err == nil || !ix.fallbackFor(err) {
			return dist, err
		}
	}
	return ix.fb.distTo(ctx, dst)
}

func (ix *Index) reverseEngine() error {
	ix.revOnce.Do(func() {
		ix.revEng, ix.revErr = core.NewEngine(ix.eng.Graph().Reverse(), ix.eng.Tree(),
			core.Config{Ex: ix.ex, Algorithm: ix.alg})
	})
	return ix.revErr
}

// WithWeights builds a new Index for a graph with the same undirected
// skeleton but different edge weights and/or directions, REUSING the
// separator decomposition — the paper's comment (iv): the decomposition
// "needs to be computed only once for a group of instances which differ in
// the weights and direction on edges". Only the E+ construction reruns.
// When g also keeps the indexed graph's directed edges in the same order,
// so only weights change, the new index reuses more: E+'s pair layout and
// the query schedule's arena structure (run heads, targets, run numbering)
// are shared with the receiver, and only the min-plus work of the E+
// construction, a weight gather and a weight scatter run. A pair that
// flips between finite and +Inf, or any change of direction, rebuilds E+'s
// layout and the schedule on the reused tree. The result is identical to a
// fresh Build of g either way. Returns an error if g's skeleton differs
// from the indexed graph's. It is WithWeightsContext with a background
// context; for rebuild-and-swap without downtime, see Manager.
func (ix *Index) WithWeights(g *Graph) (*Index, error) {
	return ix.WithWeightsContext(context.Background(), g)
}

// WithWeightsContext is WithWeights with cooperative cancellation of the
// E+ reconstruction (ctx polled at the augmentation's outer-loop
// boundaries, like BuildContext). A cancelled rebuild returns
// (nil, ctx.Err()) and leaves the receiver untouched.
func (ix *Index) WithWeightsContext(ctx context.Context, g *Graph) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !ix.primary() {
		return nil, fmt.Errorf("%w: WithWeights needs the separator decomposition", ErrDegraded)
	}
	if err := g.b.CheckWeights(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidWeight, err)
	}
	dg := g.b.Build()
	// The same directed edges in the same order imply the same skeleton.
	if old := ix.eng.Graph(); !old.SameEdges(dg) && !graph.NewSkeleton(old).Equal(graph.NewSkeleton(dg)) {
		return nil, fmt.Errorf("%w: WithWeights requires the same undirected skeleton", ErrSkeletonMismatch)
	}
	var fb *fallbackEngine
	if ix.fb != nil {
		var err error
		// The receiver's counters carry over, so the counts never fall.
		if fb, err = newFallbackEngine(dg, ix.fb.engaged, ix.fb.queries); err != nil {
			return nil, err
		}
	}
	prep := &pram.Stats{}
	eng, err := core.NewEngine(dg, ix.eng.Tree(), core.Config{Ex: ix.ex, Algorithm: ix.alg, PrepStats: prep,
		Obs: ix.sink, Inject: ix.eng.Injector(), Ctx: ctx, Prev: ix.eng})
	if err != nil {
		if errors.Is(err, augment.ErrNegativeCycle) {
			return nil, fmt.Errorf("%w: %v", ErrNegativeCycle, err)
		}
		return nil, err
	}
	out := &Index{eng: eng, g: dg, ex: ix.ex, alg: ix.alg, sink: ix.sink, fb: fb, stats: engineStats(eng, prep)}
	return out, nil
}
