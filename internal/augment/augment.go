// Package augment implements the paper's core contribution: constructing the
// shortcut edge set E+ (Section 3.1) from a separator decomposition tree,
// with the two computation strategies of Section 4:
//
//   - Alg41 — "computing E+ from the leaves up" (Algorithm 4.1): one
//     all-pairs closure on each separator graph H_S plus a 3-limited
//     computation on the boundary graph H, processed level by level.
//   - Alg43 — the faster simultaneous algorithm (Algorithm 4.3): every tree
//     node repeatedly applies one path-doubling step to its local complete
//     graph H(t) and pulls improved weights from its children, saving a
//     Θ(log n) factor in parallel time at the cost of a Θ(log n) factor in
//     work.
//
// Both produce identical E+ weights: for every tree node t, an edge (v1, v2)
// with weight dist_{G(t)}(v1, v2) for every pair in S(t)×S(t) ∪ B(t)×B(t)
// (Theorem 3.1 / Proposition 4.2 / Proposition 4.5). A boolean variant for
// reachability (the paper's M(n^μ) bounds) lives in boolean.go.
package augment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// ErrNegativeCycle reports that the input graph contains a negative-weight
// cycle; per the paper's comment (i), detection happens within the
// preprocessing resource bounds.
var ErrNegativeCycle = errors.New("augment: negative-weight cycle detected")

// Config controls an augmentation run.
type Config struct {
	// Ex supplies the parallel executor; nil means pram.Sequential.
	Ex *pram.Executor
	// Stats receives work/round counts; nil discards them.
	Stats *pram.Stats
	// UseFloydWarshall switches per-node closures from repeated squaring
	// (O(log²) time, O(n³ log n) work — the paper's parallel choice) to
	// Floyd-Warshall (O(n) phases, O(n³) work — the sequential choice).
	UseFloydWarshall bool
	// Obs receives a trace span per stage (tree level for Alg41, doubling
	// iteration for Alg43) and runs each stage under pprof labels when
	// they are on. The per-stage counts land in Result either way; nil
	// disables the spans and labels.
	Obs *obs.Sink
	// Ctx, when non-nil, makes the construction cancellable: it is polled
	// between tree levels (Alg41) and between doubling iterations (Alg43),
	// and a cancelled run returns ctx.Err() within one level/iteration of
	// work. Nil runs to completion.
	Ctx context.Context
	// Prev, when non-nil, is an earlier Result on the same tree whose E+
	// layout the run gathers into if its contributions hit exactly Prev's
	// pairs (see assemble): a reweight that keeps every pair's
	// reachability. The Edges are identical either way.
	Prev *Result
}

// cancelled reports the configured context's error, if any; the cheap poll
// both algorithms run at their outer-loop boundaries.
func (c Config) cancelled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// attributed runs one stage of a construction under its own counted cost:
// the stage's work and rounds land in st and are forwarded into c.Stats, so
// the totals never change. With tracing on, the stage also gets a span and
// runs under pprof labels.
func (c Config) attributed(st *Stage, span string, kv []any, stage func(Config) error) error {
	sub := &pram.Stats{}
	sc := c
	sc.Stats = sub
	var err error
	if c.Obs.Traced() {
		sp := c.Obs.Span(span, "prep", kv...)
		c.Obs.Do(func() { err = stage(sc) }, pprofLabels(span, kv)...)
		sp.End()
	} else {
		err = stage(sc)
	}
	st.Work, st.Rounds = sub.Work(), sub.Rounds()
	c.Stats.AddWork(st.Work)
	c.Stats.AddRounds(st.Rounds)
	return err
}

// pprofLabels flattens a span name and its kv args into a pprof label list
// (string values only; numbers are formatted).
func pprofLabels(span string, kv []any) []string {
	labels := []string{"phase", span}
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			continue
		}
		labels = append(labels, k, fmt.Sprint(kv[i+1]))
	}
	return labels
}

func (c Config) ex() *pram.Executor {
	if c.Ex == nil {
		return pram.Sequential
	}
	return c.Ex
}

// Result is a computed augmentation.
type Result struct {
	// Edges is the deduplicated E+: at most one edge per ordered pair (the
	// minimum-weight parallel edge, per Section 3.1), self-loops omitted,
	// in strictly increasing (From, To) order. The order is part of the
	// contract: two builds of one graph return identical slices, so every
	// consumer (the query schedule's buckets, persisted indexes) sees the
	// same edge sequence.
	Edges []graph.Edge
	// RawCount is the number of (pair, node) contributions before
	// deduplication — the quantity bounded by Theorem 5.1(iii).
	RawCount int64

	// Levels is Algorithm 4.1's cost per tree level, indexed by level: the
	// levels' Work and Rounds sum to the run's counted totals and their
	// Contributions to RawCount. Nil for Algorithm 4.3.
	Levels []Stage
	// Iters is Algorithm 4.3's cost: Iters[0] is the initialisation and
	// Iters[i] doubling iteration i-1; their Work and Rounds sum to the
	// run's counted totals. Nil for Algorithm 4.1.
	Iters []Stage

	// lay is the From-CSR of Edges' pairs, shared by every Result gathered
	// into it (see assemble); nil for a Result not made by assemble.
	lay *layout
}

// Stage is the counted cost of one unit of an E+ construction: one tree
// level of Algorithm 4.1, or the initialisation or one doubling iteration
// of Algorithm 4.3.
type Stage struct {
	Work, Rounds int64
	// Contributions is the stage's E+ pair contributions before
	// deduplication; 0 for Algorithm 4.3, whose nodes all emit after the
	// last iteration.
	Contributions int64
}

// layout is E+'s pair structure: the pairs of From v are Edges[off[v]:
// off[v+1]], Tos ascending.
type layout struct{ off []int }

// SharesLayout reports whether r was gathered into o's layout (or o into
// r's): the two hold the same (From, To) pairs in the same order, and only
// their weights may differ.
func (r *Result) SharesLayout(o *Result) bool { return r.lay != nil && r.lay == o.lay }

// part is one tree node's E_t contributions in row form: row r holds the
// candidate shortcuts (rows[r].from, to[k]) of weight w[k], for k in
// [rows[r].lo, rows[r].hi), with to ascending. Every E+ construction has
// each node emit its own part; assemble merges them.
type part struct {
	rows []row
	to   []int32
	w    []float64
}

type row struct{ from, lo, hi int32 }

// newPart returns an empty part with room for all of node nd's potential
// contributions, |S|² + |B|².
func newPart(nd *separator.Node) part {
	return part{
		rows: make([]row, 0, len(nd.S)+len(nd.B)),
		to:   make([]int32, 0, len(nd.S)*len(nd.S)+len(nd.B)*len(nd.B)),
		w:    make([]float64, 0, len(nd.S)*len(nd.S)+len(nd.B)*len(nd.B)),
	}
}

// endRow closes the row of from that began at contribution lo, unless it
// is empty.
func (p *part) endRow(from, lo int) {
	if hi := len(p.to); hi > lo {
		p.rows = append(p.rows, row{int32(from), int32(lo), int32(hi)})
	}
}

// block appends the contributions of set×set: the pair (set[i], set[j])
// with weight d(pos[i], pos[j]), or d(i, j) when pos is nil. Self-loops and
// +Inf (unreachable) pairs are not contributions.
func (p *part) block(set, pos []int, d *matrix.Dense) {
	for i, u := range set {
		pi := i
		if pos != nil {
			pi = pos[i]
		}
		r, lo := d.A[pi*d.C:(pi+1)*d.C], len(p.to)
		for j, v := range set {
			pj := j
			if pos != nil {
				pj = pos[j]
			}
			if w := r[pj]; u != v && !math.IsInf(w, 1) {
				p.to = append(p.to, int32(v))
				p.w = append(p.w, w)
			}
		}
		p.endRow(u, lo)
	}
}

// assemble deduplicates the per-node contributions into E+, keeping the
// minimum weight per ordered pair; the result's edges are in (From, To)
// order and RawCount is the number of contributions.
//
// It runs in two steps. The layout step fixes E+'s pairs: a count round
// (see count) sizes each From's span of distinct Tos. The weight step,
// gather, fills the spans. prev, when non-nil, offers an earlier Result's
// layout instead: E+'s pairs depend only on which pairs are reachable
// inside each G(t), not on the weights, so a reweight usually hits
// exactly prev's pairs and skips the layout step; the Result then shares
// prev's layout. If the pairs differ (a pair flipped between finite and
// +Inf), the same contributions are laid out afresh. Either way the edges
// are what a run without prev returns.
func assemble(n int, parts []part, prev *Result, ex *pram.Executor) *Result {
	rs := sortRows(n, parts, ex.P())
	if prev != nil && prev.lay != nil && len(prev.lay.off) == n+1 {
		edges := make([]graph.Edge, len(prev.Edges))
		if rs.gather(prev.lay.off, prev.Edges, edges, ex) {
			return &Result{Edges: edges, RawCount: rs.raw, lay: prev.lay}
		}
	}
	off := rs.count(ex)
	edges := make([]graph.Edge, off[n])
	rs.gather(off, nil, edges, ex)
	return &Result{Edges: edges, RawCount: rs.raw, lay: &layout{off: off}}
}

// rowsByFrom is the parts' rows grouped by From, as CSR arrays: the rows
// of From v are refs[start[v]:start[v+1]], in part order. cuts splits the
// Froms [0, n) into at most P ranges of about equal contribution counts,
// one worker each in the count and gather rounds.
type rowsByFrom struct {
	parts []part
	start []int
	refs  []rowRef
	cuts  []int
	raw   int64
}

type rowRef struct{ part, lo, hi int32 }

// sortRows counting-sorts the parts' rows by From and cuts the Froms into
// at most p ranges.
func sortRows(n int, parts []part, p int) *rowsByFrom {
	rs := &rowsByFrom{parts: parts, start: make([]int, n+1)}
	load := make([]int, n) // contributions with From v
	raw := 0
	for _, pt := range parts {
		raw += len(pt.to)
		for _, r := range pt.rows {
			rs.start[r.from+1]++
			load[r.from] += int(r.hi - r.lo)
		}
	}
	for v := 0; v < n; v++ {
		rs.start[v+1] += rs.start[v]
	}
	rs.refs = make([]rowRef, rs.start[n])
	next := slices.Clone(rs.start[:n])
	for pi, pt := range parts {
		for _, r := range pt.rows {
			rs.refs[next[r.from]] = rowRef{int32(pi), r.lo, r.hi}
			next[r.from]++
		}
	}
	rs.raw = int64(raw)
	rs.cuts = []int{0}
	if p > 1 && raw > 0 {
		per, acc := (raw+p-1)/p, 0
		for v := 0; v < n-1; v++ {
			if acc += load[v]; acc >= per {
				rs.cuts, acc = append(rs.cuts, v+1), 0
			}
		}
	}
	rs.cuts = append(rs.cuts, n)
	return rs
}

// count is the layout step's round: it returns the From-CSR of the
// distinct contributed (From, To) pairs, From v's at [off[v], off[v+1]).
func (rs *rowsByFrom) count(ex *pram.Executor) []int {
	n := len(rs.start) - 1
	off := make([]int, n+1)
	ex.For(len(rs.cuts)-1, func(c int) {
		mark := make([]int32, n) // v+1 once From v has seen the To
		for v := rs.cuts[c]; v < rs.cuts[c+1]; v++ {
			k := 0
			for _, r := range rs.refs[rs.start[v]:rs.start[v+1]] {
				for _, t := range rs.parts[r.part].to[r.lo:r.hi] {
					if mark[t] != int32(v+1) {
						mark[t] = int32(v + 1)
						k++
					}
				}
			}
			off[v+1] = k
		}
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	return off
}

// gather is the weight step: it writes E+ into out, From v's pairs at
// out[off[v]:off[v+1]]. The pairs are those of pairs, an earlier E+ on the
// same layout, or, when pairs is nil, v's distinct contributed Tos in
// ascending order. Each pair keeps the minimum contributed weight: the
// first contribution claims it and only a strictly smaller one replaces
// it, the rule a map keyed by pair applies when fed the same sequence.
//
// Each range keeps dense per-To scratch: mark[t] == v+1 once To t is a
// pair of From v, and best[t] is its weight so far. With pairs, v's pairs
// are marked before its contributions are read, and gather reports false
// if a contribution hits an unmarked To or a pair gets no contribution:
// the contributed pairs are not pairs' pairs.
func (rs *rowsByFrom) gather(off []int, pairs, out []graph.Edge, ex *pram.Executor) bool {
	n := len(rs.start) - 1
	ranges := len(rs.cuts) - 1
	bad := make([]bool, ranges)
	inf := math.Inf(1)
	ex.For(ranges, func(c int) {
		mark := make([]int32, n)
		best := make([]float64, n)
		var seen []int32
		for v := rs.cuts[c]; v < rs.cuts[c+1]; v++ {
			stamp, span := int32(v+1), out[off[v]:off[v+1]]
			if pairs != nil {
				for _, e := range pairs[off[v]:off[v+1]] {
					mark[e.To], best[e.To] = stamp, inf
				}
			}
			seen = seen[:0]
			for _, r := range rs.refs[rs.start[v]:rs.start[v+1]] {
				p := &rs.parts[r.part]
				for k := r.lo; k < r.hi; k++ {
					t := p.to[k]
					if mark[t] != stamp {
						if pairs != nil {
							bad[c] = true
							return
						}
						mark[t], best[t] = stamp, inf
						seen = append(seen, t)
					}
					if w := p.w[k]; w < best[t] {
						best[t] = w
					}
				}
			}
			if pairs == nil {
				slices.Sort(seen)
				for i, t := range seen {
					span[i] = graph.Edge{From: v, To: int(t), W: best[t]}
				}
				continue
			}
			for i, e := range pairs[off[v]:off[v+1]] {
				if math.IsInf(best[e.To], 1) {
					bad[c] = true
					return
				}
				span[i] = graph.Edge{From: v, To: e.To, W: best[e.To]}
			}
		}
	})
	return !slices.Contains(bad, true)
}

// positions returns, for each vertex of the sorted set sub, its index in
// the sorted set sup, or -1 when sup lacks it: one merge-walk over the two
// label sets (V, S and B are sorted, see separator.Node).
func positions(sub, sup []int) []int {
	out := make([]int, len(sub))
	j := 0
	for i, v := range sub {
		for j < len(sup) && sup[j] < v {
			j++
		}
		out[i] = -1
		if j < len(sup) && sup[j] == v {
			out[i] = j
		}
	}
	return out
}

// search returns the index of v in the sorted set s, or -1.
func search(s []int, v int) int {
	if i, ok := slices.BinarySearch(s, v); ok {
		return i
	}
	return -1
}

// leafClosure computes all-pairs distances within the leaf subgraph G(t)
// (induced on V(t)) and returns the dense |V|×|V| closure, rows and columns
// in V order. Leaves are O(1)-sized, so Floyd-Warshall is used regardless
// of mode; a negative diagonal reports a negative cycle confined to the
// leaf. The returned matrix is ws-owned scratch: callers restrict it to the
// entries they keep and Put it back.
func leafClosure(g *graph.Digraph, nd *separator.Node, cfg Config, ws *matrix.Workspace) (*matrix.Dense, error) {
	d := ws.GetSquare(len(nd.V))
	for i, v := range nd.V {
		g.Out(v, func(to int, w float64) bool {
			if j := search(nd.V, to); j >= 0 {
				d.SetMin(i, j, w)
			}
			return true
		})
	}
	if err := matrix.FloydWarshall(d, pram.Sequential, cfg.Stats); err != nil {
		ws.Put(d)
		return nil, fmt.Errorf("%w (inside leaf node %d)", ErrNegativeCycle, nd.ID)
	}
	return d, nil
}

// closure runs the configured all-pairs closure in place, drawing doubling
// scratch from ws.
func closure(d *matrix.Dense, cfg Config, ws *matrix.Workspace) error {
	if cfg.UseFloydWarshall {
		return matrix.FloydWarshall(d, cfg.ex(), cfg.Stats)
	}
	return matrix.ClosureWS(d, ws, cfg.ex(), cfg.Stats)
}

// closureRounds is the analytic PRAM round count of one closure on a k×k
// matrix under the configured mode.
func closureRounds(k int, cfg Config) int64 {
	if k <= 1 {
		return 1
	}
	if cfg.UseFloydWarshall {
		return int64(k)
	}
	return matrix.MulRounds(k) * matrix.MulRounds(k) // log k squarings × log k depth
}

// nodesByLevel groups node ids by tree level, deepest first.
func nodesByLevel(t *separator.Tree) [][]int {
	byLevel := make([][]int, t.Height+1)
	for i := range t.Nodes {
		l := t.Nodes[i].Level
		byLevel[l] = append(byLevel[l], i)
	}
	return byLevel
}
