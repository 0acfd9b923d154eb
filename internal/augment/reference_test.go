package augment

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sepsp/internal/graph"
	"sepsp/internal/matrix"
	"sepsp/internal/pram"
)

// This file retains the map-based E+ deduplication that assemble replaced,
// as the reference assemble is checked against bit for bit.

// collector deduplicates shortcut edges, keeping the minimum weight per
// ordered pair.
type collector struct {
	m   map[int64]float64
	raw int64
}

func newCollector() *collector { return &collector{m: make(map[int64]float64)} }

func pairKey(u, v int) int64 { return int64(u)<<32 | int64(uint32(v)) }

func (c *collector) add(u, v int, w float64) {
	if u == v || math.IsInf(w, 1) {
		return
	}
	c.raw++
	k := pairKey(u, v)
	if old, ok := c.m[k]; !ok || w < old {
		c.m[k] = w
	}
}

// result returns the collected edges, sorted into (From, To) order so they
// compare slice to slice with assemble's.
func (c *collector) result() *Result {
	edges := make([]graph.Edge, 0, len(c.m))
	for k, w := range c.m {
		edges = append(edges, graph.Edge{From: int(k >> 32), To: int(uint32(k)), W: w})
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.From != b.From {
			return a.From - b.From
		}
		return a.To - b.To
	})
	return &Result{Edges: edges, RawCount: c.raw}
}

// referenceResult feeds every contribution, parts in order, through the map
// collector.
func referenceResult(parts []part) *Result {
	c := newCollector()
	for _, p := range parts {
		for _, r := range p.rows {
			for k := r.lo; k < r.hi; k++ {
				c.add(int(r.from), int(p.to[k]), p.w[k])
			}
		}
	}
	return c.result()
}

// sameBits reports the first difference between two results, comparing
// pairs, weight bits and raw counts exactly; "" when identical.
func sameBits(got, want *Result) string {
	if got.RawCount != want.RawCount {
		return fmt.Sprintf("raw count %d, reference %d", got.RawCount, want.RawCount)
	}
	if len(got.Edges) != len(want.Edges) {
		return fmt.Sprintf("|E+| %d, reference %d", len(got.Edges), len(want.Edges))
	}
	for i, e := range got.Edges {
		r := want.Edges[i]
		if e.From != r.From || e.To != r.To || math.Float64bits(e.W) != math.Float64bits(r.W) {
			return fmt.Sprintf("edge %d is %+v, reference %+v", i, e, r)
		}
	}
	return ""
}

func TestAssembleDedupKeepsMinimum(t *testing.T) {
	// Three blocks over {1, 2} each contribute (1, 2): the diagonal
	// self-loops and the unreachable (2, 1) are not contributions.
	var parts []part
	for _, w := range []float64{5, 3, 9} {
		d := matrix.NewSquare(2)
		d.Set(0, 1, w)
		var p part
		p.block([]int{1, 2}, nil, d)
		parts = append(parts, p)
	}
	res := assemble(3, parts, nil, pram.NewExecutor(2))
	if len(res.Edges) != 1 || res.Edges[0] != (graph.Edge{From: 1, To: 2, W: 3}) {
		t.Fatalf("edges: %+v", res.Edges)
	}
	if res.RawCount != 3 {
		t.Fatalf("raw=%d", res.RawCount)
	}
	if msg := sameBits(res, referenceResult(parts)); msg != "" {
		t.Fatal(msg)
	}
}
