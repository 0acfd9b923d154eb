package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sepsp/internal/pram"
)

// benchMatrix builds a deterministic n×n min-plus matrix with ~30% finite
// entries — dense enough that the closure runs its full doubling schedule,
// sparse enough that the +Inf panel skipping matters.
func benchMatrix(n int) *Dense {
	rng := rand.New(rand.NewSource(42))
	return randomSquare(rng, n, 0.3, 0.1, 10)
}

func benchMul(b *testing.B, n int, tiled bool) {
	a := benchMatrix(n)
	c := benchMatrix(n)
	dst := New(n, n)
	b.SetBytes(int64(n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tiled {
			MulMinPlusInto(dst, a, c, pram.Sequential, nil)
		} else {
			dst = MulMinPlusNaive(a, c, pram.Sequential, nil)
		}
	}
	sink = dst.A[0]
}

var sink float64

func BenchmarkMulMinPlus256(b *testing.B)      { benchMul(b, 256, true) }
func BenchmarkMulMinPlus256Naive(b *testing.B) { benchMul(b, 256, false) }

// BenchmarkMulMinPlusDense is the all-finite (B×S)⊗(S×B) product at the 16³
// cube's level-1 shape: every 8-row group takes the relax8 fast path, so it
// times the row kernel itself rather than the +Inf skipping.
func BenchmarkMulMinPlusDense(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	x := randomRect(rng, 256, 144, 1)
	y := randomRect(rng, 144, 256, 1)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulMinPlusInto(dst, x, y, pram.Sequential, nil)
	}
	sink = dst.A[0]
}

func benchClosure(b *testing.B, n int, tiled bool) {
	src := benchMatrix(n)
	d := New(n, n)
	ws := NewWorkspace()
	b.SetBytes(int64(n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(d.A, src.A)
		d.R, d.C = n, n
		var err error
		if tiled {
			err = ClosureWS(d, ws, pram.Sequential, nil)
		} else {
			err = ClosureNaive(d, pram.Sequential, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	sink = d.A[0]
}

// BenchmarkClosure256 vs BenchmarkClosure256Naive is the kernel-level
// speedup target of the build-performance work (see DESIGN.md): the tiled
// ping-pong closure must run ≥2x faster single-threaded than the naive
// row-parallel closure on a 256×256 matrix.
func BenchmarkClosure256(b *testing.B)      { benchClosure(b, 256, true) }
func BenchmarkClosure256Naive(b *testing.B) { benchClosure(b, 256, false) }

func BenchmarkClosure512(b *testing.B)      { benchClosure(b, 512, true) }
func BenchmarkClosure512Naive(b *testing.B) { benchClosure(b, 512, false) }

func BenchmarkSquareStepInto256(b *testing.B) {
	d := benchMatrix(256)
	dst := New(256, 256)
	b.SetBytes(256 * 256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquareStepInto(dst, d, pram.Sequential, nil)
	}
	sink = dst.A[0]
}

// BenchmarkLaneRelax times one LaneRelax call per width on a synthetic
// bucket shaped like a phase of the 16³ cube: 4096 rows, one run per head
// of 1–6 edges to rows within 64 of it, and every eighth row +Inf in every
// lane. Those rows are heads only, never targets, so their runs are skipped
// on every call and the other rows stay finite.
func BenchmarkLaneRelax(b *testing.B) {
	const rows = 4096
	dead := func(v int) bool { return v%8 == 7 }
	rng := rand.New(rand.NewSource(42))
	var runs []LaneRun
	var to []int32
	var w []float64
	for h := 0; h < rows; h++ {
		for e := 1 + rng.Intn(6); e > 0; {
			t := h + rng.Intn(129) - 64
			if t < 0 || t >= rows || dead(t) {
				continue
			}
			to, w = append(to, int32(t)), append(w, 1+rng.Float64())
			e--
		}
		runs = append(runs, LaneRun{H: int32(h), Hi: int32(len(to))})
	}
	for _, width := range LaneWidths {
		d := make([]float64, rows*width)
		for i := range d {
			if dead(i / width) {
				d[i] = math.Inf(1)
			} else {
				d[i] = 100 * rng.Float64()
			}
		}
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LaneRelax(d, width, runs, to, w)
			}
		})
	}
}
