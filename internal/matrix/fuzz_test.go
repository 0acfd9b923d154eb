package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sepsp/internal/pram"
)

// FuzzMulMinPlusVsNaive checks the blocked kernels against the naive
// references bit for bit (sign of zero included). The input decodes a shape
// of up to 70 per side, so shapes cross the 8/4/1-row groups and the tileK
// panel edge, plus the share of +Inf entries and of negative entries; ±0
// entries make the kernels' tie rule observable. MulMinPlusInto (tiled over
// two workers) must equal MulMinPlusNaive bit for bit. ClosureWS must give
// ClosureNaive's error, counted work and, without a negative cycle, matrix
// under bitIdentical: its delta steps relax the changed rows before the
// others, not in k order, so a tie between a −0 and a +0 candidate may keep
// the other zero.
func FuzzMulMinPlusVsNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, r, k, c, infPct, negPct uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		pInf, pNeg := float64(infPct%101)/100, float64(negPct%101)/100
		entry := func() float64 {
			switch x := rng.Float64(); {
			case x < pInf:
				return math.Inf(1)
			case x < pInf+(1-pInf)/16:
				return math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
			v := float64(1+rng.Intn(4000)) / 16
			if rng.Float64() < pNeg {
				v = -v
			}
			return v
		}
		fill := func(rows, cols int) *Dense {
			d := New(rows, cols)
			for i := range d.A {
				d.A[i] = entry()
			}
			return d
		}
		ex := pram.NewExecutor(2)

		a, b := fill(int(r%71), int(k%71)), fill(int(k%71), int(c%71))
		got := New(a.R, b.C)
		stT, stN := &pram.Stats{}, &pram.Stats{}
		MulMinPlusInto(got, a, b, ex, stT)
		want := MulMinPlusNaive(a, b, pram.Sequential, stN)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("MulMinPlusInto %dx%dx%d: entry %d = %v, naive %v", a.R, a.C, b.C, i, got.A[i], want.A[i])
		}
		if stT.Work() != stN.Work() {
			t.Fatalf("MulMinPlusInto work %d, naive %d", stT.Work(), stN.Work())
		}

		d := fill(int(r%71), int(r%71))
		x, y := d.Clone(), d.Clone()
		stT, stN = &pram.Stats{}, &pram.Stats{}
		errT := ClosureWS(x, NewWorkspace(), ex, stT)
		errN := ClosureNaive(y, pram.Sequential, stN)
		if (errT == nil) != (errN == nil) || (errT != nil && !errors.Is(errT, ErrNegativeCycle)) {
			t.Fatalf("ClosureWS error %v, naive %v", errT, errN)
		}
		if stT.Work() != stN.Work() {
			t.Fatalf("ClosureWS work %d, naive %d", stT.Work(), stN.Work())
		}
		if errT == nil {
			if !bitIdentical(x, y) {
				t.Fatalf("ClosureWS n=%d differs from ClosureNaive", d.R)
			}
		}
	})
}

// firstBitDiff returns the first index where a and b differ in their bits,
// or -1 when they are identical.
func firstBitDiff(a, b *Dense) int {
	for i, v := range a.A {
		if math.Float64bits(v) != math.Float64bits(b.A[i]) {
			return i
		}
	}
	return -1
}
