package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/pram"
)

// --- Degenerate shapes -------------------------------------------------------

// TestMulDegenerateShapes covers every R/C/k combination in {0,1}: the blocked
// kernel, the naive kernel, and the counted work must all agree, no call may
// panic, and an empty inner dimension must yield the all-+Inf product.
func TestMulDegenerateShapes(t *testing.T) {
	for _, r := range []int{0, 1} {
		for _, k := range []int{0, 1} {
			for _, c := range []int{0, 1} {
				t.Run(fmt.Sprintf("r%d_k%d_c%d", r, k, c), func(t *testing.T) {
					a, b := New(r, k), New(k, c)
					if r == 1 && k == 1 {
						a.Set(0, 0, 2)
					}
					if k == 1 && c == 1 {
						b.Set(0, 0, 3)
					}
					stT, stN := &pram.Stats{}, &pram.Stats{}
					got := MulMinPlus(a, b, pram.Sequential, stT)
					want := MulMinPlusNaive(a, b, pram.Sequential, stN)
					if got.R != r || got.C != c {
						t.Fatalf("shape %dx%d, want %dx%d", got.R, got.C, r, c)
					}
					if !got.Equal(want) {
						t.Fatalf("blocked %v != naive %v", got.A, want.A)
					}
					if stT.Work() != stN.Work() || stT.Work() != int64(r*k*c) {
						t.Fatalf("work blocked=%d naive=%d want %d", stT.Work(), stN.Work(), r*k*c)
					}
					if k == 0 && r == 1 && c == 1 && !math.IsInf(got.At(0, 0), 1) {
						t.Fatalf("empty inner dimension: got %v, want +Inf", got.At(0, 0))
					}
				})
			}
		}
	}
}

func TestMulAllInf(t *testing.T) {
	a, b := New(5, 7), New(7, 3)
	st := &pram.Stats{}
	got := MulMinPlus(a, b, pram.Sequential, st)
	for _, v := range got.A {
		if !math.IsInf(v, 1) {
			t.Fatalf("all-Inf product has finite entry %v", v)
		}
	}
	if st.Work() != 5*7*3 {
		t.Fatalf("Inf skipping changed counted work: %d", st.Work())
	}
}

func TestMulRoundsDegenerate(t *testing.T) {
	if MulRounds(0) != 0 {
		t.Fatalf("MulRounds(0)=%d, want 0 (no triples, no reduction)", MulRounds(0))
	}
	if MulRounds(-3) != 0 {
		t.Fatalf("MulRounds(-3)=%d, want 0", MulRounds(-3))
	}
	if MulRounds(1) != 1 || MulRounds(2) != 2 {
		t.Fatalf("MulRounds small values changed: %d %d", MulRounds(1), MulRounds(2))
	}
}

func TestClosureDegenerate(t *testing.T) {
	for _, n := range []int{0, 1} {
		d := NewSquare(n)
		if err := Closure(d, pram.Sequential, nil); err != nil {
			t.Fatalf("Closure(n=%d): %v", n, err)
		}
	}
	// 1×1 with a negative self-loop is a negative cycle.
	d := New(1, 1)
	d.Set(0, 0, -1)
	if err := Closure(d, pram.Sequential, nil); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("negative self-loop: got %v", err)
	}
}

func TestSquareStepIntoDegenerate(t *testing.T) {
	if SquareStepInto(New(0, 0), New(0, 0), pram.Sequential, nil) {
		t.Fatal("empty matrix reported a change")
	}
	d := NewSquare(1)
	if SquareStepInto(New(1, 1), d, pram.Sequential, nil) {
		t.Fatal("1x1 identity reported a change")
	}
}

func TestMulIntoPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	a, b := New(2, 3), New(3, 2)
	mustPanic("inner mismatch", func() { MulMinPlusInto(New(2, 2), a, a, nil, nil) })
	mustPanic("dst shape", func() { MulMinPlusInto(New(3, 3), a, b, nil, nil) })
	d := NewSquare(4)
	mustPanic("aliasing", func() { SquareStepInto(d, d, nil, nil) })
	mustPanic("mul aliasing", func() { MulMinPlusInto(d, d, NewSquare(4), nil, nil) })
}

// --- Exact equivalence of blocked vs naive kernels ---------------------------

// randomRect fills an r×c matrix with the given density of finite entries.
func randomRect(rng *rand.Rand, r, c int, density float64) *Dense {
	d := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				d.Set(i, j, math.Trunc(rng.NormFloat64()*1000)/16)
			}
		}
	}
	return d
}

// bitIdentical demands exact float equality entry by entry (Inf == Inf; no
// tolerance): min-plus never reassociates additions, so the blocked kernel
// must reproduce the naive result to the last bit.
func bitIdentical(a, b *Dense) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i, v := range a.A {
		w := b.A[i]
		if v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// TestBlockedMulBitIdentical crosses tile boundaries (sizes beyond
// tileR/tileC/tileK) and densities from Inf-dominated to fully dense.
func TestBlockedMulBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1, 2, 7, tileK - 1, tileK + 1, tileC, tileC + 3, 100}
		r := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		c := dims[rng.Intn(len(dims))]
		density := []float64{0.02, 0.3, 1.0}[rng.Intn(3)]
		a := randomRect(rng, r, k, density)
		b := randomRect(rng, k, c, density)
		stT, stN := &pram.Stats{}, &pram.Stats{}
		got := MulMinPlus(a, b, pram.NewExecutor(3), stT)
		want := MulMinPlusNaive(a, b, pram.Sequential, stN)
		return bitIdentical(got, want) && stT.Work() == stN.Work()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedClosureBitIdentical: the tiled ping-pong closure and the naive
// closure must agree bitwise — same entries, same counted work, same error —
// including negative-edge inputs where the squaring trajectory matters.
func TestBlockedClosureBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(90)
		lo := []float64{0.1, -2}[rng.Intn(2)] // include negative edges
		d := randomSquare(rng, n, 0.3, lo, 10)
		a, b := d.Clone(), d.Clone()
		ws := NewWorkspace()
		stT, stN := &pram.Stats{}, &pram.Stats{}
		errT := ClosureWS(a, ws, pram.NewExecutor(3), stT)
		errN := ClosureNaive(b, pram.Sequential, stN)
		if (errT == nil) != (errN == nil) {
			return false
		}
		if errT != nil {
			// Both detected a negative cycle; the counted work up to
			// detection must also agree (same squaring trajectory).
			return errors.Is(errT, ErrNegativeCycle) && stT.Work() == stN.Work()
		}
		return bitIdentical(a, b) && stT.Work() == stN.Work()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSquareStepIntoMatchesNaive: one out-of-place step on one and two
// workers yields min(d, d⊗d) bit for bit against the reference product,
// reports a change exactly when an entry strictly improved, and charges
// n³ work.
func TestSquareStepIntoMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		d := randomSquare(rng, n, 0.25, 0.5, 8)
		want := naiveMul(d, d)
		wantCh := false
		for i, v := range d.A {
			if want.A[i] < v {
				wantCh = true
			} else {
				want.A[i] = v
			}
		}
		for _, ex := range []*pram.Executor{pram.Sequential, pram.NewExecutor(2)} {
			dst := New(n, n)
			st := &pram.Stats{}
			ch := SquareStepInto(dst, d, ex, st)
			if ch != wantCh || !bitIdentical(dst, want) || st.Work() != int64(n)*int64(n)*int64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceReuseIsClean: matrices drawn from a heavily recycled workspace
// behave exactly like fresh ones (stale slab contents never leak through).
func TestWorkspaceReuseIsClean(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(50)
		d := randomSquare(rng, n, 0.4, 0.1, 5)
		ref := d.Clone()
		if err := ClosureWS(d, ws, pram.Sequential, nil); err != nil {
			t.Fatal(err)
		}
		if err := ClosureNaive(ref, pram.Sequential, nil); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(d, ref) {
			t.Fatalf("iter %d (n=%d): recycled workspace corrupted closure", iter, n)
		}
		// Also cycle some rectangular shapes through the pool.
		x := ws.Get(n, 2*n)
		y := ws.GetInf(2*n, n)
		ws.Put(x)
		ws.Put(y)
	}
	if ws.Reuses() == 0 {
		t.Fatal("workspace never reused a slab")
	}
}

func TestWorkspaceShapes(t *testing.T) {
	ws := NewWorkspace()
	g := ws.GetInf(3, 4)
	for _, v := range g.A {
		if !math.IsInf(v, 1) {
			t.Fatal("GetInf returned finite entry")
		}
	}
	s := ws.GetSquare(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := math.Inf(1)
			if i == j {
				want = 0
			}
			if s.At(i, j) != want {
				t.Fatalf("GetSquare(%d,%d)=%v", i, j, s.At(i, j))
			}
		}
	}
	ws.Put(g)
	r := ws.Get(2, 6) // same capacity class as 3×4
	if r.R != 2 || r.C != 6 || len(r.A) != 12 {
		t.Fatalf("cross-shape reuse broke shape: %dx%d len %d", r.R, r.C, len(r.A))
	}
	if ws.Reuses() != 1 {
		t.Fatalf("reuses=%d, want 1", ws.Reuses())
	}
	// Nil workspace degrades to plain allocation.
	var nilWS *Workspace
	d := nilWS.Get(4, 4)
	if d.R != 4 || d.C != 4 {
		t.Fatal("nil workspace Get failed")
	}
	nilWS.Put(d) // no-op, must not panic
	ws.Put(nil)  // nil matrix, must not panic
}
