// Roadnet: routing on an irregular road network — a Delaunay triangulation
// of random intersections with metric travel times. Unlike a grid there are
// no lattice coordinates, so the index is built from the planar embedding
// (rotation systems) via fundamental-cycle separators, the route the paper
// assumes for planar digraphs.
//
//	go run ./examples/roadnet
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"sepsp"
	"sepsp/internal/graph/gen"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	const n = 1200
	net := gen.NewDelaunay(n, gen.UnitWeights(), rng) // weights = distances

	g := sepsp.NewGraph(n)
	net.G.Edges(func(from, to int, w float64) bool {
		// One-way streets: 10% of directions are blocked.
		if rng.Float64() < 0.1 {
			return true
		}
		g.AddEdge(from, to, w)
		return true
	})

	ix, err := sepsp.Build(g, &sepsp.Options{
		Decomposition: sepsp.PlanarDecomposition(net.Rotation), // the planar embedding drives the separators
		Workers:       -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("road network: %d intersections, |E+|=%d, d_G=%d, max separator=%d\n",
		n, st.Shortcuts, st.TreeHeight, st.MaxSeparator)

	// A dispatch centre answers many origin-destination queries: build the
	// compact oracle once, then answer per-pair in O(√n)-ish work.
	o, err := ix.BuildOracle()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle: %d label entries (%.1f per intersection)\n",
		o.LabelEntries(), float64(o.LabelEntries())/n)

	var pairs [][2]int
	for k := 0; k < 5; k++ {
		pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	dists, err := o.Pairs(pairs)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range pairs {
		d := dists[i]
		// Cross-check one of them against a full query.
		if i == 0 {
			full, err := ix.SSSPContext(context.Background(), p[0])
			if err != nil {
				log.Fatal(err)
			}
			if full[p[1]] != d {
				log.Fatalf("oracle disagrees with engine: %v vs %v", d, full[p[1]])
			}
		}
		fmt.Printf("  trip (%.2f,%.2f) → (%.2f,%.2f): %.3f\n",
			net.Points[p[0]][0], net.Points[p[0]][1],
			net.Points[p[1]][0], net.Points[p[1]][1], d)
	}

	// An actual turn-by-turn route.
	path, w, ok, err := ix.PathContext(context.Background(), pairs[0][0], pairs[0][1])
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		fmt.Println("destination unreachable (one-way streets)")
		return
	}
	fmt.Printf("route for trip 0: %d segments, length %.3f\n", len(path)-1, w)
}
