// Gridrouting: multi-robot routing on a warehouse floor grid — the
// "multi-dimensional grid-like graphs" the paper's comment (v) singles out
// as the natural practical use case.
//
// The floor is a W×H grid with per-cell traversal costs and some blocked
// aisles; several robots need distances to every pick location. The grid
// coordinates give the engine its trivial k^(1/2)-separator decomposition,
// and the per-robot queries run as one parallel batch.
//
//	go run ./examples/gridrouting
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"sepsp"
)

const (
	W, H = 40, 25
)

func cell(x, y int) int { return x*H + y }

func main() {
	rng := rand.New(rand.NewSource(7))

	// Per-cell congestion cost: moving into a cell costs its congestion.
	cost := make([]float64, W*H)
	for i := range cost {
		cost[i] = 1 + 3*rng.Float64()
	}
	// Blocked aisles: vertical walls with a gap.
	blocked := make(map[int]bool)
	for _, wallX := range []int{10, 20, 30} {
		gap := rng.Intn(H)
		for y := 0; y < H; y++ {
			if y != gap {
				blocked[cell(wallX, y)] = true
			}
		}
	}

	g := sepsp.NewGraph(W * H)
	coords := make([][]int, W*H)
	for x := 0; x < W; x++ {
		for y := 0; y < H; y++ {
			v := cell(x, y)
			coords[v] = []int{x, y}
			if blocked[v] {
				continue
			}
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= W || ny < 0 || ny >= H || blocked[cell(nx, ny)] {
					continue
				}
				g.AddEdge(v, cell(nx, ny), cost[cell(nx, ny)])
			}
		}
	}

	ix, err := sepsp.Build(g, &sepsp.Options{
		Decomposition: sepsp.GridDecomposition(coords), // hyperplane separators on the lattice
		Workers:       -1,                              // all cores
	})
	if err != nil {
		log.Fatal(err)
	}

	robots := []int{cell(0, 0), cell(39, 24), cell(0, 24), cell(39, 0)}
	picks := []int{cell(15, 12), cell(25, 3), cell(35, 20)}

	rows, err := ix.SourcesBatchedContext(context.Background(), robots) // one SSSP per robot, in parallel
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("robot → pick travel costs:")
	for i, r := range robots {
		for _, p := range picks {
			fmt.Printf("  robot@(%2d,%2d) → pick@(%2d,%2d): %6.2f\n",
				coords[r][0], coords[r][1], coords[p][0], coords[p][1], rows[i][p])
		}
	}

	// Dispatch: assign each pick to its cheapest robot and print its route.
	for _, p := range picks {
		best, bestCost := -1, 0.0
		for i := range robots {
			if c := rows[i][p]; best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		path, _, ok, err := ix.PathContext(context.Background(), robots[best], p)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatalf("pick %d unreachable", p)
		}
		fmt.Printf("pick (%d,%d) ← robot %d, %d steps, cost %.2f\n",
			coords[p][0], coords[p][1], best, len(path)-1, bestCost)
	}

	st := ix.Stats()
	fmt.Printf("\nindex stats: prep work=%d, |E+|=%d, query=%d relaxations/source\n",
		st.PrepWork, st.Shortcuts, st.QueryWork)
}
