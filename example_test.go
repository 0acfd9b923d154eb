package sepsp_test

import (
	"context"
	"fmt"

	"sepsp"
)

// ExampleBuild demonstrates the minimal build-and-query flow.
func ExampleBuild() {
	g := sepsp.NewGraph(4)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 2.0)
	g.AddEdge(0, 2, 5.0)
	g.AddEdge(2, 3, 1.0)

	ix, err := sepsp.Build(g, nil)
	if err != nil {
		panic(err)
	}
	dist, err := ix.SSSPContext(context.Background(), 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(dist)
	// Output: [0 1.5 3.5 4.5]
}

// ExampleIndex_PathContext extracts an explicit minimum-weight path.
func ExampleIndex_PathContext() {
	g := sepsp.NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 1)

	ix, err := sepsp.Build(g, nil)
	if err != nil {
		panic(err)
	}
	path, w, ok, err := ix.PathContext(context.Background(), 0, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(path, w, ok)
	// Output: [0 1 2 3] 3 true
}

// ExampleIndex_DistToContext answers "how far is everything from a target".
func ExampleIndex_DistToContext() {
	g := sepsp.NewGraph(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)

	ix, err := sepsp.Build(g, nil)
	if err != nil {
		panic(err)
	}
	to, err := ix.DistToContext(context.Background(), 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(to)
	// Output: [5 3 0]
}

// ExampleSolveConstraints solves a small difference-constraint system.
func ExampleSolveConstraints() {
	// x1 − x0 ≤ 4  and  x0 − x1 ≤ −1  (so 1 ≤ x1 − x0 ≤ 4).
	sol, err := sepsp.SolveConstraints(2, []sepsp.Constraint{
		{I: 1, J: 0, C: 4},
		{I: 0, J: 1, C: -1},
	}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(sol[1]-sol[0] >= 1, sol[1]-sol[0] <= 4)
	// Output: true true
}
