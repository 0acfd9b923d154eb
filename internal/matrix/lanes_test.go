package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestLaneRelaxMatchesGoLoop compares LaneRelax (AVX2 assembly on amd64)
// with laneRelaxGo bit for bit at every width. Matrix entries and weights
// are drawn from a pool holding +0 and −0 (so candidate ties hit both sign
// orders, and w = −0 occurs), ±Inf, NaN, negatives and extremes. Each
// bucket has one to three runs over a few rows, so heads and targets
// repeat; the first run has 0–33 edges, some edges are self-loops (target
// == head) of weight ±0, positive or +Inf, and some head rows are +Inf in
// every lane or in all but one. The matrix sits at an odd or even element
// offset of a longer slab, so rows are mostly not 16- or 32-byte aligned
// and a write outside d shows up as a difference.
func TestLaneRelaxMatchesGoLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	pool := []float64{0, negZero, math.NaN(), inf, math.Inf(-1),
		-1, 1, -2.5, 2.5, 3, -0.5, 1e308, -1e308, math.SmallestNonzeroFloat64}
	selfW := []float64{0, negZero, 1, 2.5, inf}
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 { return pool[rng.Intn(len(pool))] }

	const rows = 6
	for _, width := range LaneWidths {
		for n := 0; n <= 33; n++ {
			for off := 0; off < 2; off++ {
				for trial := 0; trial < 20; trial++ {
					size := rows * width
					got := make([]float64, off+size+3)
					for i := range got {
						got[i] = pick()
					}
					var runs []LaneRun
					var to []int32
					var w []float64
					for r := 0; r < 1+trial%3; r++ {
						h := rng.Intn(rows)
						switch rng.Intn(5) {
						case 0: // all lanes unreachable: the run is skipped
							for l := 0; l < width; l++ {
								got[off+h*width+l] = inf
							}
						case 1: // one live lane
							for l := 0; l < width; l++ {
								got[off+h*width+l] = inf
							}
							got[off+h*width+rng.Intn(width)] = pick()
						}
						edges := n
						if r > 0 {
							edges = rng.Intn(8)
						}
						for j := 0; j < edges; j++ {
							if rng.Intn(4) == 0 {
								to, w = append(to, int32(h)), append(w, selfW[rng.Intn(len(selfW))])
							} else {
								to, w = append(to, int32(rng.Intn(rows))), append(w, pick())
							}
						}
						runs = append(runs, LaneRun{H: int32(h), Hi: int32(len(to))})
					}
					want := append([]float64(nil), got...)

					LaneRelax(got[off:off+size], width, runs, to, w)
					if !laneRelaxGo(want[off:off+size], width, runs, to, w) {
						t.Fatalf("width=%d n=%d: Go loop rejected an in-range bucket", width, n)
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("width=%d n=%d off=%d trial=%d: slab[%d] = %v (%#x), Go loop %v (%#x)",
								width, n, off, trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestLaneRelaxOutOfRangePanics: a target or head index outside the matrix,
// run ends that pass the edges or go backwards, weights and targets of
// different lengths and an unsupported width must panic in Go, at every
// width — on amd64 before the assembly touches memory through the bad
// index.
func TestLaneRelaxOutOfRangePanics(t *testing.T) {
	const rows = 5
	to, w := []int32{1, 2}, []float64{1, 1}
	for _, width := range LaneWidths {
		d := make([]float64, rows*width) // all 0: every head row is live
		for _, c := range []struct {
			name string
			runs []LaneRun
			to   []int32
			w    []float64
			want string // in the panic message
		}{
			{"target=rows", []LaneRun{{0, 2}}, []int32{1, rows}, w, "out of range"},
			{"target=-1", []LaneRun{{0, 1}}, []int32{-1}, w[:1], "out of range"},
			{"head=rows", []LaneRun{{rows, 1}}, to, w, "out of range"},
			{"head=-1", []LaneRun{{-1, 1}}, to, w, "out of range"},
			{"end past edges", []LaneRun{{0, 3}}, to, w, "out of range"},
			{"end backwards", []LaneRun{{0, 2}, {1, 1}}, to, w, "out of range"},
			{"negative end", []LaneRun{{0, -1}}, to, w, "out of range"},
			{"short w", []LaneRun{{0, 2}}, to, w[:1], "weights"},
			{"long w", []LaneRun{{0, 2}}, to, []float64{1, 1, 1}, "weights"},
		} {
			t.Run(fmt.Sprintf("width=%d/%s", width, c.name), func(t *testing.T) {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
						t.Fatalf("panic %q, want one about %q", msg, c.want)
					}
				}()
				LaneRelax(d, width, c.runs, c.to, c.w)
			})
		}
	}
	t.Run("width=3", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("unsupported width did not panic")
			}
		}()
		LaneRelax(make([]float64, 9), 3, nil, nil, nil)
	})
}
