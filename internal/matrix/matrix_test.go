package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/pram"
)

func randomSquare(rng *rand.Rand, n int, density float64, lo, hi float64) *Dense {
	d := NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				d.Set(i, j, lo+rng.Float64()*(hi-lo))
			}
		}
	}
	return d
}

// naiveMul is the reference min-plus product.
func naiveMul(a, b *Dense) *Dense {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			best := math.Inf(1)
			for k := 0; k < a.C; k++ {
				if s := a.At(i, k) + b.At(k, j); s < best {
					best = s
				}
			}
			out.Set(i, j, best)
		}
	}
	return out
}

func TestMulMinPlusMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := New(r, k), New(k, c)
		for i := 0; i < r; i++ {
			for j := 0; j < k; j++ {
				if rng.Float64() < 0.7 {
					a.Set(i, j, rng.NormFloat64()*10)
				}
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < 0.7 {
					b.Set(i, j, rng.NormFloat64()*10)
				}
			}
		}
		got := MulMinPlus(a, b, pram.NewExecutor(3), nil)
		return got.Equal(naiveMul(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClosureMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		d := randomSquare(rng, n, 0.4, 0.1, 10)
		a, b := d.Clone(), d.Clone()
		if err := Closure(a, pram.Sequential, nil); err != nil {
			return false
		}
		if err := FloydWarshall(b, pram.Sequential, nil); err != nil {
			return false
		}
		// Floating point: same set of path sums, possibly different
		// association order. Compare with tolerance.
		for i := range a.A {
			x, y := a.A[i], b.A[i]
			if math.IsInf(x, 1) != math.IsInf(y, 1) {
				return false
			}
			if !math.IsInf(x, 1) && math.Abs(x-y) > 1e-9*(1+math.Abs(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClosureDetectsNegativeCycle(t *testing.T) {
	d := NewSquare(3)
	d.Set(0, 1, 1)
	d.Set(1, 2, -3)
	d.Set(2, 0, 1)
	if err := Closure(d.Clone(), pram.Sequential, nil); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("Closure: want ErrNegativeCycle, got %v", err)
	}
	if err := FloydWarshall(d, pram.Sequential, nil); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("FloydWarshall: want ErrNegativeCycle, got %v", err)
	}
}

func TestClosureNegativeEdgesNoCycle(t *testing.T) {
	d := NewSquare(3)
	d.Set(0, 1, -5)
	d.Set(1, 2, -7)
	if err := Closure(d, pram.Sequential, nil); err != nil {
		t.Fatal(err)
	}
	if d.At(0, 2) != -12 {
		t.Fatalf("dist(0,2)=%v", d.At(0, 2))
	}
}

func TestTriangularCountingWork(t *testing.T) {
	st := &pram.Stats{}
	a := New(3, 4)
	b := New(4, 5)
	MulMinPlus(a, b, pram.Sequential, st)
	if st.Work() != 3*4*5 {
		t.Fatalf("work=%d want 60", st.Work())
	}
}

func TestSquareStepConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomSquare(rng, 12, 0.3, 1, 5)
	for i := 0; i < 12; i++ {
		d.SetMin(i, i, 0)
	}
	steps := 0
	for next := New(12, 12); SquareStepInto(next, d, pram.Sequential, nil); d, next = next, d {
		steps++
		if steps > 20 {
			t.Fatal("SquareStepInto does not converge")
		}
	}
	// After convergence d is transitively closed: one more naive pass
	// cannot improve.
	prod := naiveMul(d, d)
	for i := range prod.A {
		if prod.A[i] < d.A[i] {
			t.Fatal("converged matrix not closed")
		}
	}
}

func TestSetMinAndAccessors(t *testing.T) {
	d := New(2, 2)
	d.SetMin(0, 1, 5)
	d.SetMin(0, 1, 7)
	if d.At(0, 1) != 5 {
		t.Fatalf("SetMin raised a value: %v", d.At(0, 1))
	}
	d.SetMin(0, 1, 2)
	if d.At(0, 1) != 2 {
		t.Fatal("SetMin did not lower")
	}
	if !d.Clone().Equal(d) {
		t.Fatal("clone not equal")
	}
}

func TestMulRounds(t *testing.T) {
	if MulRounds(1) != 1 {
		t.Fatalf("MulRounds(1)=%d", MulRounds(1))
	}
	if MulRounds(8) != 4 {
		t.Fatalf("MulRounds(8)=%d", MulRounds(8))
	}
}
