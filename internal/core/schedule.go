// Package core ties the pieces together into the paper's end-to-end engine:
// preprocessing (separator tree → E+ via Algorithm 4.1 or 4.3) and the
// per-source query of Section 3.2 — a Bellman-Ford that scans each edge
// class only in the O(d_G) phases where the bitonic structure theorem says
// it can still be useful, bringing per-source work down from
// O(|E ∪ E+|·diam) to O(ℓ·|E| + |E ∪ E+|).
package core

import (
	"math"
	"slices"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/separator"
)

// Schedule is the precomputed phase structure of the Section 3.2 query. The
// proof of Theorem 3.1 shows every distance is realized in G+ by a path of
// the form
//
//	[≤ ℓ original edges] [bitonic shortcut chain] [≤ ℓ original edges]
//
// where the chain's vertex levels first never increase and then never
// decrease, with at most two consecutive equal labels. The schedule
// therefore relaxes:
//
//  1. all original edges, ℓ times;
//  2. for L = d_G … 0: same-level-L edges, then descending edges leaving
//     level L (level(from)=L > level(to));
//  3. for L = 0 … d_G: ascending edges entering level L
//     (level(to)=L > level(from)), then same-level-L edges;
//  4. all original edges, ℓ times.
//
// (The printed schedule in the paper suffers OCR-garbled level arithmetic;
// this is the equivalent bitonic ordering, see DESIGN.md.)
type Schedule struct {
	height int
	l      int
	// prevRuns counts the run slots of the tracked buckets (eAll and every
	// same[L]), which the arena packs first: the run-delta tracker only
	// needs resetting on [0, prevRuns).
	prevRuns int

	// The phase arena, the schedule's only form: every bucket, flattened
	// into one contiguous allocation with targets as int32 and weights as
	// float64 in separate slices, edges grouped by head vertex with
	// run-length-encoded heads. eAll holds the original edges, scanned in
	// the ℓ-phases; lvl[b] the level bucket with id b (see LevelBucket).
	eAll Bucket
	lvl  []Bucket

	// The plan a reweight scatters new weights by (see reweighted): the
	// arena slot of every input edge. allSlot[i] is original edge i's slot
	// in eAll; lvlSlot[i] is input edge i's slot in its level bucket, or -1,
	// counting the originals first and then the shortcuts.
	allSlot []int32
	lvlSlot []int32
}

// Bucket is one phase bucket in structure-of-arrays form. Edges sharing a
// head vertex form one run, and rle holds one 8-byte record per run: the
// head vertex H and the exclusive end Hi of its (to, w) pairs; the run's
// start is the previous record's Hi, 0 for run 0. The hot loop loads
// dist[head] once per run, skips whole +Inf runs, and streams to/w
// sequentially; the lane kernels take rle as is. Callers outside the
// package read a bucket through Runs, To and W and must not modify what
// they return.
type Bucket struct {
	rle []matrix.LaneRun // runs in first-appearance order of their heads
	to  []int32
	w   []float64

	// runBase is this bucket's first slot in the schedule-wide run
	// numbering (one slot per run of every bucket, in arena order): run r
	// of this bucket owns global slot runBase+r. The query workspace keeps
	// one prev[dist[head]] tracker entry per global run (see
	// relaxBucketTracked).
	runBase int32
}

// Runs returns the bucket's head runs in relaxation order: run r holds the
// edges from Runs()[r].H to To()[j] with weight W()[j] for j from the
// previous run's Hi (0 for run 0) up to Runs()[r].Hi.
func (b *Bucket) Runs() []matrix.LaneRun { return b.rle }

// To returns the target vertex of every edge of the bucket.
func (b *Bucket) To() []int32 { return b.to }

// W returns the weight of every edge of the bucket.
func (b *Bucket) W() []float64 { return b.w }

// Edges returns the number of edges in the bucket.
func (b *Bucket) Edges() int { return len(b.to) }

// soaBuilder packs buckets into shared arena slices. runOf is an n-sized
// scratch mapping a vertex to its run index within the bucket being built
// (-1 outside a build), so grouping is O(bucket size) with no per-bucket
// n-sized work.
type soaBuilder struct {
	runOf []int32
	rle   []matrix.LaneRun
	to    []int32
	w     []float64
	rPos  int // cursor into rle
	ePos  int // cursor into to/w
}

// newSOABuilder sizes the arena for exactly the given buckets: to/w by edge
// count, rle by run count (distinct heads per bucket).
func newSOABuilder(n int, buckets [][]graph.Edge) *soaBuilder {
	if int64(n) > math.MaxInt32 {
		panic("core: graph too large for the int32 phase arena")
	}
	// runOf doubles as a per-bucket stamp while the runs are counted.
	runOf := make([]int32, n)
	for i := range runOf {
		runOf[i] = -1
	}
	edges, runs := 0, 0
	for bi, bucket := range buckets {
		edges += len(bucket)
		for _, e := range bucket {
			if runOf[e.From] != int32(bi) {
				runOf[e.From] = int32(bi)
				runs++
			}
		}
	}
	for i := range runOf {
		runOf[i] = -1
	}
	return &soaBuilder{
		runOf: runOf,
		rle:   make([]matrix.LaneRun, runs),
		to:    make([]int32, edges),
		w:     make([]float64, edges),
	}
}

// build groups edges by head into the next arena region and returns the
// bucket view. Within a run, edges keep their relative input order.
// slot[j] receives the arena slot edges[j] lands in.
func (sb *soaBuilder) build(edges []graph.Edge, slot []int32) Bucket {
	// Pass 1: assign run ids in first-appearance order, count run sizes
	// in Hi.
	rle := sb.rle[sb.rPos:sb.rPos]
	for _, e := range edges {
		if sb.runOf[e.From] < 0 {
			sb.runOf[e.From] = int32(len(rle))
			rle = append(rle, matrix.LaneRun{H: int32(e.From)})
		}
		rle[sb.runOf[e.From]].Hi++
	}
	// Prefix-sum the counts into bucket-relative run ends, keeping each
	// run's arena start as its scatter cursor.
	cur := make([]int32, len(rle))
	var end int32
	for r := range rle {
		cur[r] = int32(sb.ePos) + end
		end += rle[r].Hi
		rle[r].Hi = end
	}
	// Pass 2: scatter edges to their run slots.
	for j, e := range edges {
		p := sb.runOf[e.From]
		sb.to[cur[p]] = int32(e.To)
		sb.w[cur[p]] = e.W
		slot[j] = cur[p]
		cur[p]++
	}
	for _, run := range rle {
		sb.runOf[run.H] = -1
	}
	b := Bucket{
		rle:     rle,
		to:      sb.to[sb.ePos : sb.ePos+len(edges)],
		w:       sb.w[sb.ePos : sb.ePos+len(edges)],
		runBase: int32(sb.rPos),
	}
	sb.rPos += len(rle)
	sb.ePos += len(edges)
	return b
}

// NewSchedule builds the phase buckets for the union of the original edges
// and the shortcut edges, with ℓ = t.Ell() and levels from the
// decomposition tree. The buckets live in the SoA arena every executor
// streams, so all of them relax the identical edge sequence.
func NewSchedule(t *separator.Tree, original, shortcuts []graph.Edge) *Schedule {
	h := t.Height + 1
	s := &Schedule{
		height:  t.Height,
		l:       t.Ell(),
		lvl:     make([]Bucket, 3*h),
		allSlot: make([]int32, len(original)),
		lvlSlot: make([]int32, len(original)+len(shortcuts)),
	}
	// Count every bucket, then carve all of them from one exactly sized
	// array and scatter the edges in input order. lvlSlot holds each
	// edge's bucket, then its index in that array, until the arena slots
	// replace it.
	start := make([]int, 3*h+1)
	i := 0
	for _, list := range [2][]graph.Edge{original, shortcuts} {
		for _, e := range list {
			b := LevelBucket(t, e.From, e.To)
			s.lvlSlot[i] = int32(b)
			start[b+1]++ // start[0] counts the edges of no bucket
			i++
		}
	}
	start[0] = 0
	for b := 1; b <= 3*h; b++ {
		start[b] += start[b-1]
	}
	all := make([]graph.Edge, start[3*h])
	cur := append([]int(nil), start[:3*h]...)
	i = 0
	for _, list := range [2][]graph.Edge{original, shortcuts} {
		for _, e := range list {
			if b := s.lvlSlot[i]; b >= 0 {
				all[cur[b]] = e
				s.lvlSlot[i] = int32(cur[b])
				cur[b]++
			}
			i++
		}
	}
	// The arena holds eAll, then the level buckets by id. The tracked
	// buckets (eAll and every same[L]) thus come first and their global
	// run slots form the prefix [0, prevRuns): the per-query +Inf reset of
	// the run-delta tracker touches only slots a tracked kernel can read,
	// not the desc/asc runs that never consult it.
	buckets := [][]graph.Edge{original}
	for b := 0; b < 3*h; b++ {
		buckets = append(buckets, all[start[b]:start[b+1]])
	}
	sb := newSOABuilder(t.N(), buckets)
	at := make([]int32, len(all)) // arena slot of all[j]
	s.eAll = sb.build(original, s.allSlot)
	for b := range s.lvl {
		if b == h {
			s.prevRuns = sb.rPos
		}
		s.lvl[b] = sb.build(all[start[b]:start[b+1]], at[start[b]:start[b+1]])
	}
	for i, j := range s.lvlSlot {
		if j >= 0 {
			s.lvlSlot[i] = at[j]
		}
	}
	return s
}

// BucketAll is the bucket id of the original edges E, which the ℓ sweeps
// relax. LevelBucket returns it for an edge in no level bucket.
const BucketAll = -1

// LevelBucket is the §3.2 classification of an edge (from, to) of E ∪ E+
// on the decomposition tree t of height d_G, with h = d_G + 1 levels. It
// returns the id of the edge's level bucket: same[L] = L when
// level(from) = level(to) = L, desc[L] = h+L when level(from) = L >
// level(to), asc[L] = 2h+L when level(to) = L > level(from). An edge with an
// undefined endpoint level gets BucketAll: it is only reachable through
// leaf-interior segments, which the ℓ sweeps of the original edges cover.
func LevelBucket(t *separator.Tree, from, to int) int {
	h := t.Height + 1
	lu, lv := t.Level(from), t.Level(to)
	switch {
	case lu == separator.LevelUndef || lv == separator.LevelUndef:
		return BucketAll
	case lu == lv:
		return lu
	case lu > lv:
		return h + lu
	default:
		return 2*h + lv
	}
}

// arena returns the schedule's buckets in arena order: eAll, then the
// level buckets by id.
func (s *Schedule) arena() []*Bucket {
	out := make([]*Bucket, 0, 1+len(s.lvl))
	out = append(out, &s.eAll)
	for b := range s.lvl {
		out = append(out, &s.lvl[b])
	}
	return out
}

// reweighted returns the schedule of the same edge sequence with new
// weights: original and shortcuts must hold the (From, To) pairs s was built
// from, in the same order. The result shares every structural array with s
// (rle, to, the run numbering and the slot plan) and gets a
// fresh weight arena, filled by scattering each input edge's weight to its
// recorded slots.
func (s *Schedule) reweighted(original, shortcuts []graph.Edge) *Schedule {
	if len(original) != len(s.allSlot) || len(original)+len(shortcuts) != len(s.lvlSlot) {
		panic("core: reweighted schedule needs the edge counts it was built from")
	}
	r := &Schedule{
		height:   s.height,
		l:        s.l,
		prevRuns: s.prevRuns,
		eAll:     s.eAll,
		lvl:      slices.Clone(s.lvl),
		allSlot:  s.allSlot,
		lvlSlot:  s.lvlSlot,
	}
	buckets, size := r.arena(), 0
	for _, b := range buckets {
		size += b.Edges()
	}
	w := make([]float64, size)
	for i, e := range original {
		w[s.allSlot[i]] = e.W
		if j := s.lvlSlot[i]; j >= 0 {
			w[j] = e.W
		}
	}
	for k, e := range shortcuts {
		if j := s.lvlSlot[len(original)+k]; j >= 0 {
			w[j] = e.W
		}
	}
	for _, b := range buckets {
		b.w, w = w[:b.Edges()], w[b.Edges():]
	}
	return r
}

// Phases returns the total number of relaxation phases one query performs:
// 2ℓ + 4(d_G + 1).
func (s *Schedule) Phases() int { return PhaseCount(s.l, s.height) }

// PhaseKind labels a phase's position within the §3.2 bitonic schedule.
type PhaseKind string

const (
	PhaseEllPre   PhaseKind = "ell-pre"   // original edges, first ℓ sweeps
	PhaseSameDown PhaseKind = "same-down" // same-level edges, descending sweep
	PhaseDesc     PhaseKind = "desc"      // descending edges leaving level L
	PhaseAsc      PhaseKind = "asc"       // ascending edges entering level L
	PhaseSameUp   PhaseKind = "same-up"   // same-level edges, ascending sweep
	PhaseEllPost  PhaseKind = "ell-post"  // original edges, last ℓ sweeps
)

// PhaseKinds lists the kinds in schedule order (the stable iteration order
// for breakdown tables).
var PhaseKinds = []PhaseKind{PhaseEllPre, PhaseSameDown, PhaseDesc, PhaseAsc, PhaseSameUp, PhaseEllPost}

// PhaseInfo identifies one phase of the schedule for attribution.
type PhaseInfo struct {
	Index int       // 0-based position in the schedule
	Kind  PhaseKind // position within the bitonic structure
	Level int       // tree level for level-scoped kinds, -1 for the ℓ sweeps
}

// PhaseWork is the per-kind slice of the schedule's cost breakdown.
type PhaseWork struct {
	Kind   PhaseKind
	Phases int   // phases of this kind
	Work   int64 // relaxations performed across them
}

// Breakdown returns the schedule's cost per phase kind, in schedule order.
// The Work column sums exactly to WorkPerSource and the Phases column to
// Phases() — the static counterpart of the per-phase query metrics.
func (s *Schedule) Breakdown() []PhaseWork {
	by := make(map[PhaseKind]*PhaseWork, len(PhaseKinds))
	out := make([]PhaseWork, len(PhaseKinds))
	for i, k := range PhaseKinds {
		out[i].Kind = k
		by[k] = &out[i]
	}
	for i := 0; i < s.Phases(); i++ {
		ph, b := s.PhaseAt(i)
		pw := by[ph.Kind]
		pw.Phases++
		pw.Work += int64(b.Edges())
	}
	return out
}

// PhaseCount returns the number of phases of the §3.2 schedule for leaf
// diameter bound ℓ = l on a tree of height d_G = height: 2ℓ + 4(d_G + 1).
func PhaseCount(l, height int) int { return 2*l + 4*(height+1) }

// PhaseOf returns the identity and bucket id (see LevelBucket) of phase i
// (0 ≤ i < PhaseCount(l, height)) of the bitonic ordering: ℓ sweeps of all
// original edges, the descending sweep (same-level then descending edges
// for L = d_G … 0), the ascending sweep (ascending then same-level edges
// for L = 0 … d_G), and ℓ closing sweeps.
func PhaseOf(l, height, i int) (PhaseInfo, int) {
	h := height + 1
	switch {
	case i < l:
		return PhaseInfo{Index: i, Kind: PhaseEllPre, Level: -1}, BucketAll
	case i < l+2*h:
		j := i - l
		L := height - j/2
		if j%2 == 0 {
			return PhaseInfo{Index: i, Kind: PhaseSameDown, Level: L}, L
		}
		return PhaseInfo{Index: i, Kind: PhaseDesc, Level: L}, h + L
	case i < l+4*h:
		j := i - l - 2*h
		L := j / 2
		if j%2 == 0 {
			return PhaseInfo{Index: i, Kind: PhaseAsc, Level: L}, 2*h + L
		}
		return PhaseInfo{Index: i, Kind: PhaseSameUp, Level: L}, L
	default:
		return PhaseInfo{Index: i, Kind: PhaseEllPost, Level: -1}, BucketAll
	}
}

// PhaseAt returns the identity and arena bucket of phase i of the schedule
// (0 ≤ i < Phases()), in the order of PhaseOf. Random access lets hot
// query loops iterate phases without allocating closures.
func (s *Schedule) PhaseAt(i int) (PhaseInfo, *Bucket) {
	ph, b := PhaseOf(s.l, s.height, i)
	if b == BucketAll {
		return ph, &s.eAll
	}
	return ph, &s.lvl[b]
}

// WorkPerSource returns the number of edge relaxations one query performs —
// the quantity bounded by O(ℓ·|E| + |E ∪ E+|) in Section 3.2 (same-level
// buckets are scanned twice, once per sweep direction).
func (s *Schedule) WorkPerSource() int64 {
	var w int64
	for i := 0; i < s.Phases(); i++ {
		_, b := s.PhaseAt(i)
		w += int64(b.Edges())
	}
	return w
}
