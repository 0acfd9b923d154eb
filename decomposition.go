package sepsp

import (
	"fmt"

	"sepsp/internal/planar"
	"sepsp/internal/separator"
)

// Decomposition selects the separator-decomposition strategy for Build via
// Options.Decomposition. Values are created by the typed constructors
// (GridDecomposition, GeometricDecomposition, TreeDecomposition,
// PlanarDecomposition); the zero value is invalid. Construction-time
// validation errors are carried inside the value and surfaced by Build
// wrapped in ErrBadOptions, so the constructors stay chainable:
//
//	ix, err := sepsp.Build(g, &sepsp.Options{
//	        Decomposition: sepsp.GridDecomposition(coords),
//	})
//
// It is the only way to choose a decomposition; nil selects the generic
// BFS-layer finder.
type Decomposition struct {
	kind   string
	finder separator.Finder
	err    error
}

// Kind names the decomposition strategy ("grid", "geometric", "tree",
// "planar"), for logs and error messages.
func (d *Decomposition) Kind() string {
	if d == nil {
		return ""
	}
	return d.kind
}

// GridDecomposition selects hyperplane separators for lattice graphs:
// coords[v] is the integer grid coordinate of vertex v. All coordinate rows
// must have the same dimension.
func GridDecomposition(coords [][]int) *Decomposition {
	d := &Decomposition{kind: "grid"}
	if len(coords) == 0 {
		d.err = fmt.Errorf("%w: GridDecomposition requires coordinates", ErrBadOptions)
		return d
	}
	dim := len(coords[0])
	for v, row := range coords {
		if len(row) != dim {
			d.err = fmt.Errorf("%w: GridDecomposition: coordinate %d has dimension %d, want %d",
				ErrBadOptions, v, len(row), dim)
			return d
		}
	}
	d.finder = &separator.CoordinateFinder{Coord: coords}
	return d
}

// GeometricDecomposition selects slab separators for geometric (radius)
// graphs: points[v] is the position of vertex v and radius the connection
// radius, which must be positive.
func GeometricDecomposition(points [][]float64, radius float64) *Decomposition {
	d := &Decomposition{kind: "geometric"}
	if len(points) == 0 {
		d.err = fmt.Errorf("%w: GeometricDecomposition requires points", ErrBadOptions)
		return d
	}
	if radius <= 0 {
		d.err = fmt.Errorf("%w: GeometricDecomposition requires a positive radius", ErrBadOptions)
		return d
	}
	d.finder = &separator.SlabFinder{Points: points, Radius: radius}
	return d
}

// TreeDecomposition selects centroid-bag separators for bounded-treewidth
// graphs, from a tree decomposition given as bags plus the bag-tree parent
// array (parents[i] is the parent bag of bag i; the root's parent is
// itself or -1). bags and parents must have equal length.
func TreeDecomposition(bags [][]int, parents []int) *Decomposition {
	d := &Decomposition{kind: "tree"}
	if len(bags) == 0 {
		d.err = fmt.Errorf("%w: TreeDecomposition requires bags", ErrBadOptions)
		return d
	}
	if len(parents) != len(bags) {
		d.err = fmt.Errorf("%w: TreeDecomposition: %d bags but %d parents",
			ErrBadOptions, len(bags), len(parents))
		return d
	}
	d.finder = &separator.TreeDecompFinder{Bags: bags, Parent: parents}
	return d
}

// PlanarDecomposition selects fundamental-cycle separators for embedded
// planar graphs: rotations[v] lists v's neighbors in cyclic (clockwise or
// counterclockwise, consistently) order around v.
func PlanarDecomposition(rotations [][]int) *Decomposition {
	d := &Decomposition{kind: "planar"}
	if len(rotations) == 0 {
		d.err = fmt.Errorf("%w: PlanarDecomposition requires rotations", ErrBadOptions)
		return d
	}
	d.finder = &planar.CycleFinder{Em: planar.NewEmbeddingFromRotations(rotations)}
	return d
}
