// Package constraints solves systems of difference constraints
// (x_i − x_j ≤ c) with the separator shortest-path engine — the restriction
// of the paper's Section 1 application (Cohen–Megiddo systems with two
// variables per inequality) to the difference subclass, which exercises the
// identical shortest-path oracle (see DESIGN.md substitutions).
//
// The constraint graph has one vertex per variable and an edge j→i with
// weight c per constraint x_i − x_j ≤ c. The system is feasible iff the
// graph has no negative cycle, and x = (distances from a virtual
// super-source with zero-weight edges to every vertex) is the canonical
// solution. The super-source is never built: both solvers start from
// the all-zeros distance vector, so the constraint graph's separator
// structure is preserved.
package constraints

import (
	"errors"
	"fmt"
	"math/rand"

	"sepsp/internal/baseline"
	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// ErrInfeasible reports that the constraint system has no solution
// (equivalently: the constraint graph has a negative cycle).
var ErrInfeasible = errors.New("constraints: system is infeasible")

// Constraint encodes x_I − x_J ≤ C.
type Constraint struct {
	I, J int
	C    float64
}

// System is a difference-constraint system over NumVars variables.
type System struct {
	NumVars int
	Cons    []Constraint
}

// Graph builds the constraint digraph: edge J→I with weight C for each
// constraint x_I − x_J ≤ C.
func (s *System) Graph() *graph.Digraph {
	b := graph.NewBuilder(s.NumVars)
	for _, c := range s.Cons {
		b.AddEdge(c.J, c.I, c.C)
	}
	return b.Build()
}

// Check verifies that sol satisfies every constraint within tol.
func (s *System) Check(sol []float64, tol float64) error {
	if len(sol) != s.NumVars {
		return fmt.Errorf("constraints: solution has %d entries, want %d", len(sol), s.NumVars)
	}
	for _, c := range s.Cons {
		if sol[c.I]-sol[c.J] > c.C+tol {
			return fmt.Errorf("constraints: violated x%d - x%d <= %v (got %v)", c.I, c.J, c.C, sol[c.I]-sol[c.J])
		}
	}
	return nil
}

// SolveBellmanFord is the classical O(n·m) solver.
func SolveBellmanFord(s *System, st *pram.Stats) ([]float64, error) {
	g := s.Graph()
	zero := make([]float64, s.NumVars)
	sol, err := baseline.BellmanFordFrom(g, zero, st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return sol, nil
}

// SolveSeparator preprocesses the constraint graph with the separator
// engine (using the provided finder, or a BFS-layer finder when nil) and
// solves from the all-zeros vector. For a system whose underlying graph has
// a k^μ-separator decomposition this is the ˜O(n^(1+2μ) + mn) route of the
// paper's introduction (per solve: O(ℓ·m + |E ∪ E+|) work after
// preprocessing, so re-solving after weight changes is cheap).
func SolveSeparator(s *System, finder separator.Finder, ex *pram.Executor, st *pram.Stats) ([]float64, error) {
	eng, err := NewSolver(s, finder, ex, st)
	if err != nil {
		return nil, err
	}
	return eng.Solve(st), nil
}

// Solver is a preprocessed constraint system supporting repeated solves
// (e.g. after modifying the right-hand sides within the same graph: rebuild
// is needed only when the *structure* changes, per the paper's comment (iv)
// the decomposition tree survives weight changes).
type Solver struct {
	sys *System
	eng *core.Engine
}

// NewSolver preprocesses the system. Infeasibility (negative cycle) is
// detected here.
func NewSolver(s *System, finder separator.Finder, ex *pram.Executor, st *pram.Stats) (*Solver, error) {
	g := s.Graph()
	sk := graph.NewSkeleton(g)
	if finder == nil {
		finder = &separator.BFSFinder{}
	}
	tree, err := separator.Build(sk, finder, separator.Options{})
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(g, tree, core.Config{Ex: ex, PrepStats: st})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return &Solver{sys: s, eng: eng}, nil
}

// Solve returns the canonical solution (distances from the virtual
// super-source).
func (sv *Solver) Solve(st *pram.Stats) []float64 {
	zero := make([]float64, sv.sys.NumVars)
	return sv.eng.SSSPFrom(zero, st)
}

// Engine exposes the underlying shortest-path engine (for experiments).
func (sv *Solver) Engine() *core.Engine { return sv.eng }

// GridSystem generates a feasible difference-constraint system whose
// underlying graph is a w×h grid: adjacent cells constrain each other's
// values (|x_a − x_b| ≤ c with random slack), the structured workload the
// paper's introduction motivates (e.g. discretized temporal/spatial
// constraints). Returns the system and the grid coordinates, so callers can
// use the coordinate separator finder.
func GridSystem(w, h int, maxSlack float64, rng *rand.Rand) (*System, [][]int) {
	grid := gen.NewGrid([]int{w, h}, gen.UnitWeights(), rng)
	s := &System{NumVars: grid.G.N()}
	seen := map[[2]int]bool{}
	grid.G.Edges(func(from, to int, _ float64) bool {
		if seen[[2]int{from, to}] {
			return true
		}
		seen[[2]int{from, to}] = true
		s.Cons = append(s.Cons, Constraint{I: to, J: from, C: rng.Float64() * maxSlack})
		return true
	})
	return s, grid.Coord
}
