// Quickstart: build a small weighted digraph, preprocess it with the
// separator engine, and answer distance / path / reachability queries.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"sepsp"
)

func main() {
	// A small road network: 8 junctions, one-way streets with travel times.
	//
	//	0 → 1 → 2 → 3
	//	↓   ↕       ↓
	//	4 → 5 → 6 → 7   (and a slow direct ramp 0 → 7)
	g := sepsp.NewGraph(8)
	g.AddEdge(0, 1, 2.0)
	g.AddEdge(1, 2, 2.5)
	g.AddEdge(2, 3, 1.0)
	g.AddEdge(0, 4, 1.5)
	g.AddEdge(1, 5, 1.0)
	g.AddEdge(5, 1, 1.0)
	g.AddEdge(4, 5, 1.0)
	g.AddEdge(5, 6, 2.0)
	g.AddEdge(6, 7, 1.0)
	g.AddEdge(3, 7, 2.0)
	g.AddEdge(0, 7, 9.0) // slow ramp

	// LeafSize 3 forces a real decomposition even on this tiny graph so the
	// printed stats show shortcut edges; production code can leave Options
	// nil and let the whole graph be one leaf at this size.
	ix, err := sepsp.Build(g, &sepsp.Options{LeafSize: 3})
	if err != nil {
		log.Fatal(err)
	}

	dist, err := ix.SSSPContext(context.Background(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("distances from junction 0:")
	for v, d := range dist {
		fmt.Printf("  to %d: %g\n", v, d)
	}

	path, w, ok, err := ix.PathContext(context.Background(), 0, 7)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatal("junction 7 unreachable")
	}
	fmt.Printf("fastest route 0→7 (time %g): %v\n", w, path)

	reach, err := ix.Reachable(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("reachable from 4:")
	for v, ok := range reach {
		if ok {
			fmt.Printf(" %d", v)
		}
	}
	fmt.Println()

	st := ix.Stats()
	fmt.Printf("index: |E+|=%d, diam(G+) ≤ %d, %d query phases\n",
		st.Shortcuts, st.DiameterBound, st.QueryPhases)
}
