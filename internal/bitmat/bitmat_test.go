package bitmat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/pram"
)

// setCount returns the number of set entries of m.
func setCount(m *Matrix) int {
	c := 0
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if m.Get(i, j) {
				c++
			}
		}
	}
	return c
}

func randomMatrix(rng *rand.Rand, n int, density float64) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

func naiveMul(a, b *Matrix) *Matrix {
	n := a.N()
	out := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if a.Get(i, k) && b.Get(k, j) {
					out.Set(i, j, true)
					break
				}
			}
		}
	}
	return out
}

func TestSetGet(t *testing.T) {
	m := New(130) // crosses word boundaries
	m.Set(0, 0, true)
	m.Set(129, 129, true)
	m.Set(63, 64, true)
	m.Set(64, 63, true)
	if !m.Get(0, 0) || !m.Get(129, 129) || !m.Get(63, 64) || !m.Get(64, 63) {
		t.Fatal("set bits not readable")
	}
	m.Set(63, 64, false)
	if m.Get(63, 64) {
		t.Fatal("clear failed")
	}
	if c := setCount(m); c != 3 {
		t.Fatalf("%d set entries, want 3", c)
	}
}

func TestMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(90)
		a := randomMatrix(rng, n, 0.15)
		b := randomMatrix(rng, n, 0.15)
		got := Mul(a, b, pram.NewExecutor(4), nil)
		return got.Equal(naiveMul(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClosureMatchesDFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		adj := randomMatrix(rng, n, 2.0/float64(n))
		cl := Closure(adj, pram.Sequential, nil)
		// Reference: DFS from each vertex.
		for s := 0; s < n; s++ {
			seen := make([]bool, n)
			stack := []int{s}
			seen[s] = true
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for u := 0; u < n; u++ {
					if adj.Get(v, u) && !seen[u] {
						seen[u] = true
						stack = append(stack, u)
					}
				}
			}
			for u := 0; u < n; u++ {
				if cl.Get(s, u) != seen[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityAndOr(t *testing.T) {
	i3 := Identity(3)
	if setCount(i3) != 3 || !i3.Get(1, 1) || i3.Get(0, 1) {
		t.Fatal("identity wrong")
	}
	m := New(3)
	m.Set(0, 1, true)
	m.OrInPlace(i3)
	if !m.Get(0, 1) || !m.Get(2, 2) {
		t.Fatal("or failed")
	}
}

func TestMulCountsWork(t *testing.T) {
	st := &pram.Stats{}
	a := Identity(100)
	Mul(a, a, pram.Sequential, st)
	// 100 set bits, each ORs 2 words (ceil(100/64)).
	if st.Work() != 100*2 {
		t.Fatalf("work=%d", st.Work())
	}
}

func TestFromAdjacency(t *testing.T) {
	edges := func(fn func(from, to int, w float64) bool) {
		fn(0, 1, 1)
		fn(1, 2, 1)
	}
	m := FromAdjacency(3, edges)
	if !m.Get(0, 1) || !m.Get(1, 2) || m.Get(2, 0) {
		t.Fatal("adjacency wrong")
	}
}
