// Package bitmat implements dense boolean matrices packed 64 entries per
// word, with word-parallel multiplication. It is this repository's stand-in
// for the fast matrix multiplication M(r) the paper plugs into its
// reachability bounds: the asymptotic exponent differs (3 vs 2.37…) but the
// role in the algorithm — a fast boolean product for the path-doubling step —
// is identical, and the 64-way word parallelism makes it the practical choice
// on stock hardware.
package bitmat

import (
	"fmt"
	"math/bits"

	"sepsp/internal/pram"
)

// Matrix is an n×n boolean matrix, row-major, 64 columns per uint64 word.
type Matrix struct {
	n     int
	words int // words per row
	bits  []uint64
}

// New returns an n×n zero matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic("bitmat: negative size")
	}
	w := (n + 63) / 64
	return &Matrix{n: n, words: w, bits: make([]uint64, n*w)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v bool) {
	m.check(i, j)
	w := &m.bits[i*m.words+j/64]
	mask := uint64(1) << uint(j%64)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// Get returns entry (i, j).
func (m *Matrix) Get(i, j int) bool {
	m.check(i, j)
	return m.bits[i*m.words+j/64]&(1<<uint(j%64)) != 0
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("bitmat: index (%d,%d) out of range n=%d", i, j, m.n))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.n)
	copy(c.bits, m.bits)
	return c
}

// Equal reports whether two matrices have identical dimension and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i, w := range m.bits {
		if w != o.bits[i] {
			return false
		}
	}
	return true
}

// Row returns the packed words of row i (aliasing the matrix storage).
func (m *Matrix) Row(i int) []uint64 {
	return m.bits[i*m.words : (i+1)*m.words]
}

// OrInPlace sets m = m OR o.
func (m *Matrix) OrInPlace(o *Matrix) {
	if m.n != o.n {
		panic("bitmat: dimension mismatch")
	}
	for i := range m.bits {
		m.bits[i] |= o.bits[i]
	}
}

// Tile sizes of the blocked boolean kernel: a tile is tileRows result rows
// by tileWords packed 64-column words (512 bytes of each touched row).
const (
	tileRows  = 128
	tileWords = 64
)

// Mul computes the boolean product a*b into a fresh matrix. Hot paths should
// prefer MulInto with a reused destination.
func Mul(a, b *Matrix, ex *pram.Executor, st *pram.Stats) *Matrix {
	out := New(a.n)
	MulInto(out, a, b, ex, st)
	return out
}

// MulInto computes the boolean product dst = a*b, parallelized over
// word-packed tiles of the result (one parallel round of depth O(n/64)
// word-ops per row element). dst must be n×n and must not alias a or b; its
// prior contents are ignored. Work counted into st: one unit per word OR
// performed — identical to the unblocked kernel, since every set bit of a
// ORs the same total number of destination words across the column tiles.
//
// The inner loop uses the row-OR formulation: row i of the product is the OR
// of rows k of b over all k with a[i][k] set, which is cache-friendly and
// word-parallel; column tiling keeps the destination words of a row block
// L1-resident while b's rows stream through.
func MulInto(dst, a, b *Matrix, ex *pram.Executor, st *pram.Stats) {
	if a.n != b.n || dst.n != a.n {
		panic("bitmat: dimension mismatch")
	}
	if dst == a || dst == b {
		panic("bitmat: MulInto destination aliases an operand")
	}
	n := a.n
	if n == 0 {
		return
	}
	if ex == nil {
		ex = pram.Sequential
	}
	ex.ForTiles2D(n, dst.words, tileRows, tileWords, func(r0, r1, w0, w1 int) {
		var work int64
		for i := r0; i < r1; i++ {
			drow := dst.bits[i*dst.words+w0 : i*dst.words+w1]
			for x := range drow {
				drow[x] = 0
			}
			arow := a.Row(i)
			for wi, w := range arow {
				for w != 0 {
					k := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					src := b.bits[k*b.words+w0 : k*b.words+w1]
					for x, sw := range src {
						drow[x] |= sw
					}
					work += int64(len(drow))
				}
			}
		}
		st.AddWork(work)
	})
}

// Closure computes the reflexive-transitive closure (I + m)^n by repeated
// squaring: O(log n) products ping-ponged between two buffers (exactly two
// matrix allocations regardless of the doubling count). The receiver is not
// modified.
func Closure(m *Matrix, ex *pram.Executor, st *pram.Stats) *Matrix {
	c := m.Clone()
	for i := 0; i < m.n; i++ {
		c.Set(i, i, true)
	}
	scratch := New(m.n)
	for span := 1; span < m.n; span *= 2 {
		MulInto(scratch, c, c, ex, st)
		if scratch.Equal(c) {
			return c
		}
		c, scratch = scratch, c
	}
	return c
}

// FromAdjacency builds the adjacency matrix of the directed graph given as an
// edge iterator (the graph package's Edges method signature).
func FromAdjacency(n int, edges func(fn func(from, to int, w float64) bool)) *Matrix {
	m := New(n)
	edges(func(from, to int, _ float64) bool {
		m.Set(from, to, true)
		return true
	})
	return m
}
