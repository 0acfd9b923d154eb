package main

import (
	"fmt"
	"math"

	"sepsp/internal/baseline"
	"sepsp/internal/graph"
)

// relTol is the agreement demanded of a served distance and Dijkstra's:
// both are sums of the same edge weights, added in different orders.
const relTol = 1e-9

// answer is one served distance vector kept for checking, with the weights
// that were in force for the whole request.
type answer struct {
	src     int
	weights int // index into the checker's weight sets
	dist    []float64
}

// checker compares served answers with baseline Dijkstra, memoizing the
// reference vectors by (weight set, source).
type checker struct {
	sets []*graph.Digraph
	memo map[[2]int][]float64
}

func newChecker(sets ...*graph.Digraph) *checker {
	return &checker{sets: sets, memo: map[[2]int][]float64{}}
}

// check returns an error naming the first entry of a that differs from
// Dijkstra on its weight set.
func (c *checker) check(a answer) error {
	if a.weights < 0 || a.weights >= len(c.sets) {
		return fmt.Errorf("source %d: unknown weight set %d", a.src, a.weights)
	}
	key := [2]int{a.weights, a.src}
	want, ok := c.memo[key]
	if !ok {
		var err error
		if want, err = baseline.Dijkstra(c.sets[a.weights], a.src, nil); err != nil {
			return fmt.Errorf("source %d: dijkstra: %w", a.src, err)
		}
		c.memo[key] = want
	}
	if len(a.dist) != len(want) {
		return fmt.Errorf("source %d: %d distances, want %d", a.src, len(a.dist), len(want))
	}
	for v, w := range want {
		if !agree(a.dist[v], w) {
			return fmt.Errorf("source %d, vertex %d: served %v, dijkstra %v (weight set %d)", a.src, v, a.dist[v], w, a.weights)
		}
	}
	return nil
}

// checkAll checks every answer and returns how many were checked and the
// first mismatch.
func (c *checker) checkAll(as []answer) (int, error) {
	for i, a := range as {
		if err := c.check(a); err != nil {
			return i, err
		}
	}
	return len(as), nil
}

// agree reports whether two distances match within relTol (infinities
// must match exactly).
func agree(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
