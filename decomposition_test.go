package sepsp

// Tests for the typed Decomposition API and the typed sentinel errors: the
// constructors validate eagerly and carry errors into Build, the deprecated
// Options hint fields forward through the same constructors, and every
// rejection path is matchable with errors.Is.

import (
	"errors"
	"testing"
)

// TestDecompositionKinds checks the constructors name themselves and a nil
// value degrades gracefully.
func TestDecompositionKinds(t *testing.T) {
	cases := []struct {
		d    *Decomposition
		kind string
	}{
		{GridDecomposition([][]int{{0}, {1}}), "grid"},
		{GeometricDecomposition([][]float64{{0, 0}}, 0.5), "geometric"},
		{TreeDecomposition([][]int{{0}}, []int{-1}), "tree"},
		{PlanarDecomposition([][]int{{1}, {0}}), "planar"},
		{nil, ""},
	}
	for _, c := range cases {
		if got := c.d.Kind(); got != c.kind {
			t.Errorf("Kind() = %q, want %q", got, c.kind)
		}
	}
}

// TestDecompositionConstructorErrors checks each constructor's validation
// failure is carried into Build and matches ErrBadOptions.
func TestDecompositionConstructorErrors(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 1)
	bad := []struct {
		name string
		d    *Decomposition
	}{
		{"grid empty", GridDecomposition(nil)},
		{"grid ragged", GridDecomposition([][]int{{0, 0}, {1}})},
		{"geometric empty", GeometricDecomposition(nil, 1)},
		{"geometric zero radius", GeometricDecomposition([][]float64{{0}}, 0)},
		{"tree empty", TreeDecomposition(nil, nil)},
		{"tree length mismatch", TreeDecomposition([][]int{{0}, {1}}, []int{-1})},
		{"planar empty", PlanarDecomposition(nil)},
		{"zero value", &Decomposition{}},
	}
	for _, c := range bad {
		if _, err := Build(g, &Options{Decomposition: c.d}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: Build err = %v, want ErrBadOptions", c.name, err)
		}
	}
}

// TestWithWeightsSkeletonMismatch checks reweighting with a structurally
// different graph fails with the typed sentinel.
func TestWithWeightsSkeletonMismatch(t *testing.T) {
	g, grid := gridGraph(t, 5, 5, 2)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	other := NewGraph(grid.G.N())
	other.AddEdge(0, grid.G.N()-1, 1) // not an edge of the 5x5 grid skeleton
	if _, err := ix.WithWeights(other); !errors.Is(err, ErrSkeletonMismatch) {
		t.Fatalf("WithWeights err = %v, want ErrSkeletonMismatch", err)
	}
	// Same skeleton, new weights: succeeds and answers change accordingly.
	scaled := NewGraph(grid.G.N())
	grid.G.Edges(func(from, to int, w float64) bool {
		scaled.AddEdge(from, to, 2*w)
		return true
	})
	ix2, err := ix.WithWeights(scaled)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustSSSP(t, ix, 0), mustSSSP(t, ix2, 0)
	for v := range a {
		if !approxEq(2*a[v], b[v]) {
			t.Fatalf("reweighted dist[%d] = %v, want %v", v, b[v], 2*a[v])
		}
	}
}
