package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"sepsp"
)

// smallIndex builds the benchmark's grid inputs at a small size and an
// index over the first weight set.
func smallIndex(t *testing.T, dims []int) (*inputs, *sepsp.Index) {
	t.Helper()
	in := gridInputs(dims)
	ix, err := sepsp.Build(in.public[0], in.buildOptions(config{procs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	return in, ix
}

func TestCheckerAcceptsServedAnswers(t *testing.T) {
	in, ix := smallIndex(t, []int{8, 8})
	c := newChecker(in.sets...)
	for _, src := range []int{0, 17, 63} {
		dist, err := ix.SSSPContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(answer{src: src, weights: 0, dist: dist}); err != nil {
			t.Fatalf("a served answer was rejected: %v", err)
		}
	}
}

func TestCheckerRejectsCorruptedAnswer(t *testing.T) {
	in, ix := smallIndex(t, []int{8, 8})
	c := newChecker(in.sets...)
	dist, err := ix.SSSPContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]float64(nil), dist...)
	bad[40] += 1e-6
	n, err := c.checkAll([]answer{{src: 5, weights: 0, dist: dist}, {src: 5, weights: 0, dist: bad}})
	if err == nil || !strings.Contains(err.Error(), "vertex 40") {
		t.Fatalf("corrupted entry not reported: %v", err)
	}
	if n != 1 {
		t.Fatalf("checkAll stopped after %d answers, want 1 (the good one)", n)
	}
	// The right vector under the other weight set is a wrong answer too:
	// this is what a request straddling a swap would see.
	if err := c.check(answer{src: 5, weights: 1, dist: dist}); err == nil {
		t.Fatal("an answer checked against the wrong weight set passed")
	}
	if err := c.check(answer{src: 5, weights: -1, dist: dist}); err == nil {
		t.Fatal("an answer from an unknown weight set passed")
	}
	if err := c.check(answer{src: 5, weights: 0, dist: dist[:10]}); err == nil {
		t.Fatal("a truncated answer passed")
	}
}

func TestAgree(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		a, b float64
		want bool
	}{
		{1, 1, true}, {1, 1 + 1e-12, true}, {1, 1 + 1e-6, false},
		{1e6, 1e6 * (1 + 1e-12), true}, {inf, inf, true}, {inf, 1e300, false}, {0, 0, true},
	} {
		if got := agree(c.a, c.b); got != c.want {
			t.Errorf("agree(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
