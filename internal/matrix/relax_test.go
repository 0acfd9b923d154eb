package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRelaxKernelsMatchGoLoops compares relax8, relax4 and relax1 (AVX2
// assembly on amd64) with the Go loops bit for bit. Values are drawn from a
// pool holding +0 and −0 (so candidate ties hit both sign orders), NaN, ±Inf,
// negatives and extremes, in v, b and o alike. Lengths 0–33 cover every mix
// of the 4-wide body, the 2-wide step and the scalar tail; rows sit at
// alternating odd and even element offsets in one slab, so most of them are
// not 16- or 32-byte aligned, and each output row is longer than b so a
// write past len(b) shows up as a difference.
func TestRelaxKernelsMatchGoLoops(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		-1, 1, -2.5, 2.5, 3, -0.5, 1e308, -1e308, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 { return pool[rng.Intn(len(pool))] }

	kernels := []struct {
		name      string
		rows      int
		asm, loop func(o [][]float64, b []float64, v []float64)
	}{
		{"relax8", 8,
			func(o [][]float64, b, v []float64) {
				relax8(o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7], b, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
			},
			func(o [][]float64, b, v []float64) {
				relax8Go(o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7], b, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
			}},
		{"relax4", 4,
			func(o [][]float64, b, v []float64) { relax4(o[0], o[1], o[2], o[3], b, v[0], v[1], v[2], v[3]) },
			func(o [][]float64, b, v []float64) { relax4Go(o[0], o[1], o[2], o[3], b, v[0], v[1], v[2], v[3]) }},
		{"relax1", 1,
			func(o [][]float64, b, v []float64) { relax1(o[0], b, v[0]) },
			func(o [][]float64, b, v []float64) { relax1Go(o[0], b, v[0]) }},
	}
	for _, k := range kernels {
		for n := 0; n <= 33; n++ {
			for off := 0; off < 2; off++ {
				for trial := 0; trial < 20; trial++ {
					// Rows 0..k.rows-1 are outputs of length n+2, row k.rows
					// is b; the stride n+3 alternates row alignment.
					stride := n + 3
					got := make([]float64, off+(k.rows+1)*stride)
					for i := range got {
						got[i] = pick()
					}
					want := append([]float64(nil), got...)
					v := make([]float64, k.rows)
					for i := range v {
						v[i] = pick()
					}
					split := func(slab []float64) ([][]float64, []float64) {
						o := make([][]float64, k.rows)
						for r := range o {
							o[r] = slab[off+r*stride : off+r*stride+n+2]
						}
						b := slab[off+k.rows*stride : off+k.rows*stride+n]
						return o, b
					}
					o, b := split(got)
					k.asm(o, b, v)
					o, b = split(want)
					k.loop(o, b, v)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s n=%d off=%d trial=%d: slab[%d] = %v (%#x), Go loop %v (%#x)",
								k.name, n, off, trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestRelaxShortRowPanics: an output row shorter than b must panic in Go
// before any kernel touches memory.
func TestRelaxShortRowPanics(t *testing.T) {
	b := make([]float64, 9)
	long := make([]float64, 9)
	short := make([]float64, 8)
	// A row shorter than b with spare capacity behind it: reslicing it to
	// len(b) would not panic, and the kernel would write backing[8].
	backing := make([]float64, 9)
	spare := backing[:8]
	for i, call := range []func(){
		func() { relax8(long, long, long, long, long, long, long, short, b, 0, 0, 0, 0, 0, 0, 0, 0) },
		func() { relax4(long, short, long, long, b, 0, 0, 0, 0) },
		func() { relax1(short, b, 0) },
		func() { relax8(long, long, long, spare, long, long, long, long, b, -1, -1, -1, -1, -1, -1, -1, -1) },
		func() { relax4(long, long, spare, long, b, -1, -1, -1, -1) },
		func() { relax1(spare, b, -1) },
		func() { relax8Go(long, long, long, long, long, long, spare, long, b, -1, -1, -1, -1, -1, -1, -1, -1) },
		func() { relax4Go(spare, long, long, long, b, -1, -1, -1, -1) },
		func() { relax1Go(spare, b, -1) },
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("short output row did not panic")
				}
			}()
			call()
		})
	}
	if backing[8] != 0 {
		t.Fatalf("a kernel wrote %v past the end of a short row", backing[8])
	}
}
