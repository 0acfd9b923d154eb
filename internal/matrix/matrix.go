// Package matrix provides dense min-plus (tropical) matrices: the inner
// kernel of the paper's all-pairs computations. Algorithm 4.1 runs min-plus
// closures on separator graphs H_S and rectangular 3-limited products on H;
// Algorithm 4.3 runs one min-plus squaring step per node per iteration.
//
// The production kernels are cache-blocked: MulMinPlusInto and
// SquareStepInto walk the result in tileR×tileC tiles (scheduled by
// pram.Executor.ForTiles2D), stream b through tileK-row column panels that
// stay L1-resident across a whole row block, and unroll eight result rows
// per b-panel load so each loaded b value feeds eight relaxations. Rows of a
// that are +Inf across a panel skip the panel's b traffic entirely. The row
// kernels (relax8, relax4, relax1) are AVX2 assembly on amd64 CPUs that
// have it, four columns per instruction, and the Go loops of relax.go
// elsewhere; both apply the same strict-< tie rule, so results match bit
// for bit (see relax_amd64.s for the VMINPD operand order that guarantees
// it). On top
// of the blocking, ClosureWS squares semi-naively: after the first squaring
// only triples with a factor entry that improved in the previous step are
// re-relaxed (provably sufficient — see squareStepDelta), which is what
// carries repeated squaring past 2x over the naive kernel. The ...Into
// forms write into caller-owned destinations, and Workspace recycles those
// destinations across products, so a whole augmentation run allocates
// O(tree-nodes) slabs instead of one per product. MulMinPlusNaive and
// ClosureNaive keep the straightforward row-parallel kernels as the
// equivalence and benchmark reference.
//
// LaneRelax (lanes.go) is the sparse counterpart the query waves use: it
// relaxes one bucket of head-grouped edges into a lane-major distance
// matrix, one row per vertex and one lane per source, under the same tie
// rule and operand order.
//
// Work is counted as one unit per (i,k,j) triple inspected — the tiled
// kernels charge exactly a.R·a.C·b.C per product regardless of how much the
// +Inf skipping collapses, so counted work (and every Stats-derived golden
// value) is byte-identical to the naive kernels while wall clock drops.
// Parallel time is counted as rounds by the callers (see internal/pram).
package matrix

import (
	"errors"
	"math"
	mbits "math/bits"
	"sync/atomic"

	"sepsp/internal/pram"
)

// ErrNegativeCycle reports that a closure computation found a negative-weight
// cycle (a negative diagonal entry).
var ErrNegativeCycle = errors.New("matrix: negative-weight cycle detected")

// Dense is a rectangular dense matrix over the min-plus semiring. Missing
// entries are +Inf.
type Dense struct {
	R, C int
	A    []float64 // row-major, length R*C
}

// New returns an R×C matrix with all entries +Inf.
func New(r, c int) *Dense {
	a := make([]float64, r*c)
	inf := math.Inf(1)
	for i := range a {
		a[i] = inf
	}
	return &Dense{R: r, C: c, A: a}
}

// NewSquare returns an n×n matrix with +Inf off-diagonal and 0 diagonal.
func NewSquare(n int) *Dense {
	d := New(n, n)
	for i := 0; i < n; i++ {
		d.A[i*n+i] = 0
	}
	return d
}

// At returns entry (i, j).
func (d *Dense) At(i, j int) float64 { return d.A[i*d.C+j] }

// Set assigns entry (i, j).
func (d *Dense) Set(i, j int, v float64) { d.A[i*d.C+j] = v }

// SetMin lowers entry (i, j) to v if v is smaller.
func (d *Dense) SetMin(i, j int, v float64) {
	if p := &d.A[i*d.C+j]; v < *p {
		*p = v
	}
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := &Dense{R: d.R, C: d.C, A: make([]float64, len(d.A))}
	copy(c.A, d.A)
	return c
}

// Equal reports exact equality of shape and entries (Inf == Inf).
func (d *Dense) Equal(o *Dense) bool {
	if d.R != o.R || d.C != o.C {
		return false
	}
	for i, v := range d.A {
		if v != o.A[i] && !(math.IsInf(v, 1) && math.IsInf(o.A[i], 1)) {
			return false
		}
	}
	return true
}

// Tile sizes of the blocked kernels. A b-panel is tileK×tileC float64s
// (64 KiB, L2-resident) streamed against tileR result rows eight at a time,
// so every loaded b value feeds eight relaxations; a dst tile is tileR×tileC
// (128 KiB), small enough that the whole K sweep of one tile stays in L2.
// Wide tiles beat L1-sized ones here because the kernel is dominated by the
// relax ALU chain, not bandwidth — the win from tiling is bounding the
// working set to L2 and amortizing loop/slice overhead over long rows.
const (
	tileR = 64  // result rows per tile
	tileC = 256 // result columns per tile
	tileK = 32  // inner-dimension rows of b per panel
)

// MulMinPlusInto computes the min-plus product dst = a⊗b with the
// cache-blocked kernel, parallelized over result tiles. dst must have shape
// a.R×b.C and must not alias a or b; its prior contents are ignored. An
// empty inner dimension (a.C == 0) yields the all-+Inf matrix.
//
// Work charged into st: exactly a.R*a.C*b.C triples, identical to the naive
// kernel no matter how many +Inf panels are skipped. Rounds are NOT counted
// here: matrix kernels only count work, and callers account parallel rounds
// analytically (one product is MulRounds(k) PRAM rounds via a balanced min
// reduction), because concurrent kernels on different tree nodes share one
// round, not one per kernel.
func MulMinPlusInto(dst, a, b *Dense, ex *pram.Executor, st *pram.Stats) {
	if a.C != b.R {
		panic("matrix: inner dimension mismatch")
	}
	if dst.R != a.R || dst.C != b.C {
		panic("matrix: destination shape mismatch")
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("matrix: MulMinPlusInto destination aliases an operand")
	}
	if dst.R == 0 || dst.C == 0 {
		return
	}
	if ex == nil {
		ex = pram.Sequential
	}
	k := a.C
	inf := math.Inf(1)
	ex.ForTiles2D(dst.R, dst.C, tileR, tileC, func(r0, r1, c0, c1 int) {
		for i := r0; i < r1; i++ {
			row := dst.A[i*dst.C+c0 : i*dst.C+c1]
			for j := range row {
				row[j] = inf
			}
		}
		mulTile(dst, a, b, r0, r1, c0, c1)
		st.AddWork(int64(r1-r0) * int64(k) * int64(c1-c0))
	})
}

// aliases reports whether two matrices share backing storage.
func aliases(x, y *Dense) bool {
	return x == y || (len(x.A) > 0 && len(y.A) > 0 && &x.A[0] == &y.A[0])
}

// mulTile relaxes the dst tile [r0,r1)×[c0,c1) with every (i,k,j) triple of
// a⊗b, min-ing into dst's existing entries. The K dimension is walked in
// tileK panels and result rows are processed eight at a time so each b value
// loaded feeds eight relaxations. An 8-row group whose a values are all +Inf
// across a panel row skips that row's b traffic entirely; a group with any
// +Inf member relaxes anyway — relaxing with v = +Inf is a no-op (the
// candidate sum is +Inf and never improves an entry), so the skip is purely
// a fast path and the result is unchanged. (Entries are finite or +Inf,
// never -Inf, so the sums never produce NaN.)
func mulTile(dst, a, b *Dense, r0, r1, c0, c1 int) {
	k, bc, dc := a.C, b.C, dst.C
	inf := math.Inf(1)
	for k0 := 0; k0 < k; k0 += tileK {
		k1 := k0 + tileK
		if k1 > k {
			k1 = k
		}
		i := r0
		for ; i+7 < r1; i += 8 {
			a0 := a.A[i*k+k0 : i*k+k1]
			a1 := a.A[(i+1)*k+k0 : (i+1)*k+k1]
			a2 := a.A[(i+2)*k+k0 : (i+2)*k+k1]
			a3 := a.A[(i+3)*k+k0 : (i+3)*k+k1]
			a4 := a.A[(i+4)*k+k0 : (i+4)*k+k1]
			a5 := a.A[(i+5)*k+k0 : (i+5)*k+k1]
			a6 := a.A[(i+6)*k+k0 : (i+6)*k+k1]
			a7 := a.A[(i+7)*k+k0 : (i+7)*k+k1]
			o0 := dst.A[i*dc+c0 : i*dc+c1]
			o1 := dst.A[(i+1)*dc+c0 : (i+1)*dc+c1]
			o2 := dst.A[(i+2)*dc+c0 : (i+2)*dc+c1]
			o3 := dst.A[(i+3)*dc+c0 : (i+3)*dc+c1]
			o4 := dst.A[(i+4)*dc+c0 : (i+4)*dc+c1]
			o5 := dst.A[(i+5)*dc+c0 : (i+5)*dc+c1]
			o6 := dst.A[(i+6)*dc+c0 : (i+6)*dc+c1]
			o7 := dst.A[(i+7)*dc+c0 : (i+7)*dc+c1]
			for kk := range a0 {
				v0, v1, v2, v3 := a0[kk], a1[kk], a2[kk], a3[kk]
				v4, v5, v6, v7 := a4[kk], a5[kk], a6[kk], a7[kk]
				if v0 == inf && v1 == inf && v2 == inf && v3 == inf &&
					v4 == inf && v5 == inf && v6 == inf && v7 == inf {
					continue // +Inf panel row: no b traffic
				}
				brow := b.A[(k0+kk)*bc+c0 : (k0+kk)*bc+c1]
				if v0 < inf && v1 < inf && v2 < inf && v3 < inf &&
					v4 < inf && v5 < inf && v6 < inf && v7 < inf {
					relax8(o0, o1, o2, o3, o4, o5, o6, o7, brow, v0, v1, v2, v3, v4, v5, v6, v7)
					continue
				}
				// Mixed group: relax only the finite rows, matching the
				// naive kernel's per-row +Inf skip.
				if v0 < inf {
					relax1(o0, brow, v0)
				}
				if v1 < inf {
					relax1(o1, brow, v1)
				}
				if v2 < inf {
					relax1(o2, brow, v2)
				}
				if v3 < inf {
					relax1(o3, brow, v3)
				}
				if v4 < inf {
					relax1(o4, brow, v4)
				}
				if v5 < inf {
					relax1(o5, brow, v5)
				}
				if v6 < inf {
					relax1(o6, brow, v6)
				}
				if v7 < inf {
					relax1(o7, brow, v7)
				}
			}
		}
		for ; i+3 < r1; i += 4 {
			a0 := a.A[i*k+k0 : i*k+k1]
			a1 := a.A[(i+1)*k+k0 : (i+1)*k+k1]
			a2 := a.A[(i+2)*k+k0 : (i+2)*k+k1]
			a3 := a.A[(i+3)*k+k0 : (i+3)*k+k1]
			o0 := dst.A[i*dc+c0 : i*dc+c1]
			o1 := dst.A[(i+1)*dc+c0 : (i+1)*dc+c1]
			o2 := dst.A[(i+2)*dc+c0 : (i+2)*dc+c1]
			o3 := dst.A[(i+3)*dc+c0 : (i+3)*dc+c1]
			for kk := range a0 {
				v0, v1, v2, v3 := a0[kk], a1[kk], a2[kk], a3[kk]
				if v0 == inf && v1 == inf && v2 == inf && v3 == inf {
					continue
				}
				brow := b.A[(k0+kk)*bc+c0 : (k0+kk)*bc+c1]
				relax4(o0, o1, o2, o3, brow, v0, v1, v2, v3)
			}
		}
		for ; i < r1; i++ {
			arow := a.A[i*k+k0 : i*k+k1]
			orow := dst.A[i*dc+c0 : i*dc+c1]
			for kk, av := range arow {
				if av < inf {
					relax1(orow, b.A[(k0+kk)*bc+c0:(k0+kk)*bc+c1], av)
				}
			}
		}
	}
}

// MulMinPlus computes a⊗b into a fresh matrix with the blocked kernel.
// Hot paths should prefer MulMinPlusInto with a Workspace-owned destination.
func MulMinPlus(a, b *Dense, ex *pram.Executor, st *pram.Stats) *Dense {
	out := New(a.R, b.C)
	MulMinPlusInto(out, a, b, ex, st)
	return out
}

// MulMinPlusNaive is the straightforward row-parallel i/k/j kernel, kept as
// the exact-equivalence reference and benchmark baseline for the blocked
// kernels. Work counted: a.R*a.C*b.C, same as MulMinPlusInto.
func MulMinPlusNaive(a, b *Dense, ex *pram.Executor, st *pram.Stats) *Dense {
	if a.C != b.R {
		panic("matrix: inner dimension mismatch")
	}
	if ex == nil {
		ex = pram.Sequential
	}
	out := New(a.R, b.C)
	k, c := a.C, b.C
	if out.R == 0 || out.C == 0 {
		return out
	}
	ex.ForChunked(a.R, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.A[i*k : (i+1)*k]
			orow := out.A[i*c : (i+1)*c]
			for kk, av := range arow {
				if math.IsInf(av, 1) {
					continue
				}
				brow := b.A[kk*c : (kk+1)*c]
				for j, bv := range brow {
					if s := av + bv; s < orow[j] {
						orow[j] = s
					}
				}
			}
		}
		st.AddWork(int64(hi-lo) * int64(k) * int64(c))
	})
	return out
}

// MulRounds returns the PRAM rounds charged for one min-plus product with
// inner dimension k: ceil(log2 k) + 1 (balanced min reduction). A product
// with an empty inner dimension inspects no triples and charges 0 rounds.
func MulRounds(k int) int64 {
	if k <= 0 {
		return 0
	}
	r := int64(1)
	for ; k > 1; k >>= 1 {
		r++
	}
	return r
}

// SquareStepInto performs one path-doubling step out of place:
// dst = min(d, d⊗d), reporting whether any entry strictly improved. d must
// be square, dst the same shape and non-aliasing. Callers ping-pong two
// buffers (swap dst and d when a step improves) so a doubling loop allocates
// nothing. Work charged: d.R³.
func SquareStepInto(dst, d *Dense, ex *pram.Executor, st *pram.Stats) bool {
	if d.R != d.C {
		panic("matrix: SquareStepInto requires a square matrix")
	}
	if dst.R != d.R || dst.C != d.C {
		panic("matrix: destination shape mismatch")
	}
	if aliases(dst, d) {
		panic("matrix: SquareStepInto destination aliases the source")
	}
	n := d.R
	if n == 0 {
		return false
	}
	if ex == nil {
		ex = pram.Sequential
	}
	var changed atomic.Bool
	ex.ForTiles2D(n, n, tileR, tileC, func(r0, r1, c0, c1 int) {
		// Seed the dst tile with d's entries, then relax the products in:
		// the tile ends as min(d, d⊗d) with the merge fused into the kernel.
		for i := r0; i < r1; i++ {
			copy(dst.A[i*n+c0:i*n+c1], d.A[i*n+c0:i*n+c1])
		}
		mulTile(dst, d, d, r0, r1, c0, c1)
		ch := false
	scan:
		for i := r0; i < r1; i++ {
			drow := d.A[i*n+c0 : i*n+c1]
			orow := dst.A[i*n+c0 : i*n+c1]
			for j := range orow {
				if orow[j] < drow[j] {
					ch = true
					break scan
				}
			}
		}
		if ch {
			changed.Store(true)
		}
		st.AddWork(int64(r1-r0) * int64(n) * int64(c1-c0))
	})
	return changed.Load()
}

// Closure computes the reflexive-transitive min-plus closure of the square
// matrix d in place by repeated squaring: diagonal entries are first lowered
// to 0, then ceil(log2 n) squaring steps run (with early exit when a step
// changes nothing). If any diagonal entry becomes negative, the computation
// stops and ErrNegativeCycle is returned.
//
// Work O(n³ log n), rounds O(log² n) — the bound the paper quotes for
// implementing step ii of Algorithm 4.1 with path doubling. The doubling
// loop ping-pongs d against one ws-provided scratch buffer (ws may be nil:
// the scratch is then allocated and dropped).
func Closure(d *Dense, ex *pram.Executor, st *pram.Stats) error {
	return ClosureWS(d, nil, ex, st)
}

// ClosureWS is Closure with an explicit workspace for the doubling scratch.
//
// From the second squaring on it runs delta (semi-naive) steps: a triple
// (i,k,j) is relaxed only if entry (i,k) or entry (k,j) improved in the
// previous step. This is exact, not approximate — if neither factor changed,
// the identical candidate sum was already applied by the previous step's
// full product and merged into the current matrix, so it cannot improve
// anything now. Late steps of a closure, where few entries still move, thus
// cost O(changes·n) instead of n³ wall clock. Counted work per step stays
// the analytic n³ of the abstract squaring, identical to ClosureNaive.
func ClosureWS(d *Dense, ws *Workspace, ex *pram.Executor, st *pram.Stats) error {
	if d.R != d.C {
		panic("matrix: Closure requires a square matrix")
	}
	n := d.R
	for i := 0; i < n; i++ {
		d.SetMin(i, i, 0)
	}
	if err := checkDiagonal(d); err != nil {
		return err
	}
	if n < 2 {
		return nil
	}
	scratch := ws.Get(n, n)
	delta := newDeltaState(n)
	cur := d
	first := true
	var err error
	for span := 1; span < n; span *= 2 {
		if first {
			SquareStepInto(scratch, cur, ex, st)
			first = false
		} else {
			squareStepDelta(scratch, cur, delta, ex, st)
		}
		// One serial n² pass replaces the in-kernel change scan: it both
		// decides the early exit and rebuilds the change bitmaps that drive
		// the next delta step.
		if !delta.rebuild(scratch, cur) {
			break
		}
		cur, scratch = scratch, cur
		if err = checkDiagonal(cur); err != nil {
			break
		}
	}
	if cur != d {
		copy(d.A, cur.A)
		ws.Put(cur)
	} else {
		ws.Put(scratch)
	}
	return err
}

// deltaState tracks which entries of the doubling matrix improved in the
// previous squaring step, at three granularities: a per-entry bitmap, a
// per-row flag, and a per-(row, column-tile) flag so a tile kernel can skip
// whole b rows without scanning the bitmap.
type deltaState struct {
	n, words, tilesC int
	changed          []uint64 // bit (i*words + k/64, k%64): entry (i,k) improved
	rowColCnt        []int32  // [tc*n + k]: improved entries of row k within column tile tc
}

func newDeltaState(n int) *deltaState {
	words := (n + 63) / 64
	tilesC := (n + tileC - 1) / tileC
	return &deltaState{
		n: n, words: words, tilesC: tilesC,
		changed:   make([]uint64, n*words),
		rowColCnt: make([]int32, tilesC*n),
	}
}

// rebuild compares the step result dst against its input d and records every
// improved entry. Reports whether anything improved (the doubling loop's
// early-exit condition — same predicate the in-place merge used).
func (ds *deltaState) rebuild(dst, d *Dense) bool {
	n, words := ds.n, ds.words
	for i := range ds.changed {
		ds.changed[i] = 0
	}
	any := false
	for i := 0; i < n; i++ {
		drow := d.A[i*n : (i+1)*n]
		orow := dst.A[i*n : (i+1)*n]
		bits := ds.changed[i*words : (i+1)*words]
		rowHit := false
		for j, v := range orow {
			if v < drow[j] {
				bits[j/64] |= 1 << uint(j%64)
				rowHit = true
			}
		}
		any = any || rowHit
		for tc := 0; tc < ds.tilesC; tc++ {
			w0 := tc * tileC / 64
			w1 := (tc + 1) * tileC / 64
			if w1 > words {
				w1 = words
			}
			var cnt int32
			for w := w0; w < w1; w++ {
				cnt += int32(mbits.OnesCount64(bits[w]))
			}
			ds.rowColCnt[tc*n+i] = cnt
		}
	}
	return any
}

// squareStepDelta performs one doubling step dst = min(d, d⊗d) relaxing only
// the triples the previous step's changes can still improve (see ClosureWS).
// Work charged: n³, the abstract cost of the full squaring.
func squareStepDelta(dst, d *Dense, ds *deltaState, ex *pram.Executor, st *pram.Stats) {
	n := d.R
	if ex == nil {
		ex = pram.Sequential
	}
	inf := math.Inf(1)
	words := ds.words
	ex.ForTiles2D(n, n, tileR, tileC, func(r0, r1, c0, c1 int) {
		tc := c0 / tileC
		colCnt := ds.rowColCnt[tc*n : (tc+1)*n]
		// c0 is a multiple of tileC (and hence of 64), so the bitmap words
		// [w0,w1) cover exactly the columns of this tile: bits past c1 only
		// exist in the last tile's final word and are never set.
		w0 := c0 / 64
		w1 := (c1 + 63) / 64
		for i := r0; i < r1; i++ {
			copy(dst.A[i*n+c0:i*n+c1], d.A[i*n+c0:i*n+c1])
		}
		for i := r0; i < r1; i++ {
			irow := d.A[i*n : (i+1)*n]
			orow := dst.A[i*n+c0 : i*n+c1]
			ibits := ds.changed[i*words : (i+1)*words]
			// Rows k whose (i,k) entry improved: full relax against row k.
			for wi, w := range ibits {
				for w != 0 {
					k := wi*64 + mbits.TrailingZeros64(w)
					w &= w - 1
					if v := irow[k]; v < inf {
						relax1(orow, d.A[k*n+c0:k*n+c1], v)
					}
				}
			}
			// Rows k that improved somewhere in this column range: relax
			// only the improved entries of row k ((i,k) unchanged, so the
			// remaining candidates of that row were already applied). When
			// most of the row's tile span improved, a full-width relax1 is
			// cheaper than walking the bitmap — the extra triples have both
			// factors unchanged, so they are exact no-ops.
			for k := 0; k < n; k++ {
				cnt := colCnt[k]
				if cnt == 0 {
					continue
				}
				v := irow[k]
				if v == inf || ibits[k/64]&(1<<uint(k%64)) != 0 {
					continue
				}
				if int(cnt)*3 >= c1-c0 {
					relax1(orow, d.A[k*n+c0:k*n+c1], v)
					continue
				}
				krow := d.A[k*n:]
				drow := dst.A[i*n:]
				kbits := ds.changed[k*words+w0 : k*words+w1]
				base := w0 * 64
				for wi, w := range kbits {
					for w != 0 {
						j := base + wi*64 + mbits.TrailingZeros64(w)
						w &= w - 1
						if s := v + krow[j]; s < drow[j] {
							drow[j] = s
						}
					}
				}
			}
		}
		st.AddWork(int64(r1-r0) * int64(n) * int64(c1-c0))
	})
}

// ClosureNaive is the pre-tiling closure (naive products, one fresh matrix
// per squaring step), kept as the equivalence reference and benchmark
// baseline. Same early-exit and negative-cycle detection order as Closure.
func ClosureNaive(d *Dense, ex *pram.Executor, st *pram.Stats) error {
	if d.R != d.C {
		panic("matrix: Closure requires a square matrix")
	}
	n := d.R
	for i := 0; i < n; i++ {
		d.SetMin(i, i, 0)
	}
	if err := checkDiagonal(d); err != nil {
		return err
	}
	for span := 1; span < n; span *= 2 {
		prod := MulMinPlusNaive(d, d, ex, st)
		changed := false
		for i, v := range prod.A {
			if v < d.A[i] {
				d.A[i] = v
				changed = true
			}
		}
		if !changed {
			break
		}
		if err := checkDiagonal(d); err != nil {
			return err
		}
	}
	return nil
}

// FloydWarshall computes the min-plus closure of d in place with the
// Floyd-Warshall recurrence. Work n³; n rounds (each k-phase is one parallel
// round over all pairs). Returns ErrNegativeCycle if a diagonal entry goes
// negative.
func FloydWarshall(d *Dense, ex *pram.Executor, st *pram.Stats) error {
	if d.R != d.C {
		panic("matrix: FloydWarshall requires a square matrix")
	}
	if ex == nil {
		ex = pram.Sequential
	}
	n := d.R
	for i := 0; i < n; i++ {
		d.SetMin(i, i, 0)
	}
	for k := 0; k < n; k++ {
		krow := d.A[k*n : (k+1)*n]
		ex.ForChunked(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dik := d.A[i*n+k]
				if math.IsInf(dik, 1) {
					continue
				}
				irow := d.A[i*n : (i+1)*n]
				for j, kv := range krow {
					if s := dik + kv; s < irow[j] {
						irow[j] = s
					}
				}
			}
		})
		st.AddWork(int64(n) * int64(n))
		if d.A[k*n+k] < 0 {
			return ErrNegativeCycle
		}
	}
	return checkDiagonal(d)
}

func checkDiagonal(d *Dense) error {
	n := d.R
	for i := 0; i < n; i++ {
		if d.A[i*n+i] < 0 {
			return ErrNegativeCycle
		}
	}
	return nil
}
