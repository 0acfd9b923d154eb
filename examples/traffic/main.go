// Traffic: live re-routing on a road grid, demonstrating the paper's
// comment (iv) — the separator decomposition depends only on the road
// network's shape, so when travel times change (congestion) only the E+
// preprocessing reruns, and the index can also be persisted to disk and
// reloaded without any recomputation.
//
//	go run ./examples/traffic
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"sepsp"
)

const (
	W, H = 30, 30
)

func cell(x, y int) int { return x*H + y }

func buildNetwork(congestion map[int]float64) (*sepsp.Graph, [][]int) {
	g := sepsp.NewGraph(W * H)
	coords := make([][]int, W*H)
	for x := 0; x < W; x++ {
		for y := 0; y < H; y++ {
			coords[cell(x, y)] = []int{x, y}
		}
	}
	base := func(v int) float64 {
		if c, ok := congestion[v]; ok {
			return 1 + c
		}
		return 1
	}
	for x := 0; x < W; x++ {
		for y := 0; y < H; y++ {
			v := cell(x, y)
			if x+1 < W {
				g.AddEdge(v, cell(x+1, y), base(cell(x+1, y)))
				g.AddEdge(cell(x+1, y), v, base(v))
			}
			if y+1 < H {
				g.AddEdge(v, cell(x, y+1), base(cell(x, y+1)))
				g.AddEdge(cell(x, y+1), v, base(v))
			}
		}
	}
	return g, coords
}

func main() {
	rng := rand.New(rand.NewSource(42))

	// Morning: free-flowing roads.
	g, coords := buildNetwork(nil)
	start := time.Now()
	ix, err := sepsp.Build(g, &sepsp.Options{Decomposition: sepsp.GridDecomposition(coords)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial build: %v  (|E+|=%d)\n", time.Since(start).Round(time.Millisecond), ix.Stats().Shortcuts)

	home, office := cell(0, 0), cell(29, 29)
	ctx := context.Background()
	path, w, _, err := ix.PathContext(ctx, home, office)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("morning commute: %.1f min over %d segments\n", w, len(path)-1)

	// Persist the index (e.g. to ship to route servers).
	var disk bytes.Buffer
	if err := ix.Save(&disk); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted index: %d bytes\n", disk.Len())
	restored, err := sepsp.Load(&disk, 0)
	if err != nil {
		log.Fatal(err)
	}
	d, err := restored.DistContext(ctx, home, office)
	if err != nil {
		log.Fatal(err)
	}
	if d != w {
		log.Fatalf("restored index disagrees: %v vs %v", d, w)
	}
	fmt.Println("restored index answers identically")

	// Rush hour: congestion spikes on a band of cells. The road network's
	// SHAPE is unchanged, so WithWeights reuses the decomposition.
	congestion := map[int]float64{}
	for i := 0; i < 250; i++ {
		congestion[cell(10+rng.Intn(10), rng.Intn(H))] = 4 + 6*rng.Float64()
	}
	g2, _ := buildNetwork(congestion)
	start = time.Now()
	rush, err := ix.WithWeights(g2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rush-hour reweighting: %v (tree reused)\n", time.Since(start).Round(time.Millisecond))

	path2, w2, _, err := rush.PathContext(ctx, home, office)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rush-hour commute: %.1f min over %d segments\n", w2, len(path2)-1)
	if w2 < w {
		log.Fatal("congestion cannot shorten the commute")
	}
	// How much of the detour avoids the congested band?
	inBand := func(p []int) int {
		c := 0
		for _, v := range p {
			if _, ok := congestion[v]; ok {
				c++
			}
		}
		return c
	}
	fmt.Printf("congested cells on route: morning %d, rush hour %d\n", inBand(path), inBand(path2))
}
