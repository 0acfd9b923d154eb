// Scheduling: solve a pipelined-production timetable as a system of
// difference constraints — the paper's Section 1 application of the
// shortest-path engine to systems of inequalities with two variables per
// inequality.
//
// A factory runs M production lines of K stages each. Variables are stage
// start times. Constraints:
//
//   - precedence: stage s+1 of a line starts at least d after stage s;
//   - freshness:  stage s+1 must start at most f after stage s
//     (intermediate product expires);
//   - synchronization: the same stage on adjacent lines must start within
//     a tolerance window of each other (shared operators).
//
// The constraint graph is exactly an M×K grid, so the engine gets its
// separator decomposition from the lattice coordinates.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sepsp"
)

const (
	M = 8  // production lines
	K = 12 // stages per line
)

func vid(line, stage int) int { return line*K + stage }

func main() {
	rng := rand.New(rand.NewSource(3))
	var cons []sepsp.Constraint
	coords := make([][]int, M*K)
	for l := 0; l < M; l++ {
		for s := 0; s < K; s++ {
			coords[vid(l, s)] = []int{l, s}
		}
	}
	for l := 0; l < M; l++ {
		for s := 0; s+1 < K; s++ {
			d := 1 + rng.Float64()*2 // processing time of stage s
			f := d + 2 + rng.Float64()*3
			// precedence: x[s+1] - x[s] >= d  ⟺  x[s] - x[s+1] <= -d
			cons = append(cons, sepsp.Constraint{I: vid(l, s), J: vid(l, s+1), C: -d})
			// freshness: x[s+1] - x[s] <= f
			cons = append(cons, sepsp.Constraint{I: vid(l, s+1), J: vid(l, s), C: f})
		}
	}
	for l := 0; l+1 < M; l++ {
		for s := 0; s < K; s++ {
			tol := 1.5 + rng.Float64()
			cons = append(cons, sepsp.Constraint{I: vid(l, s), J: vid(l+1, s), C: tol})
			cons = append(cons, sepsp.Constraint{I: vid(l+1, s), J: vid(l, s), C: tol})
		}
	}

	start, err := sepsp.SolveConstraints(M*K, cons, &sepsp.Options{Decomposition: sepsp.GridDecomposition(coords)})
	if err != nil {
		log.Fatalf("timetable: %v", err)
	}

	// Normalize so the earliest stage starts at time 0.
	min := start[0]
	for _, x := range start {
		if x < min {
			min = x
		}
	}
	fmt.Println("stage start times (rows = lines, columns = stages):")
	for l := 0; l < M; l++ {
		fmt.Printf("  line %d:", l)
		for s := 0; s < K; s++ {
			fmt.Printf(" %6.2f", start[vid(l, s)]-min)
		}
		fmt.Println()
	}

	// Demonstrate infeasibility detection: demand that stage 1 of line 0
	// start both ≥ 10 after stage 0 and ≤ 5 after it — a contradiction
	// (and a lattice-adjacent pair, so the grid decomposition still
	// applies; the engine rejects the system via its negative cycle).
	bad := append(append([]sepsp.Constraint(nil), cons...),
		sepsp.Constraint{I: vid(0, 0), J: vid(0, 1), C: -10},
		sepsp.Constraint{I: vid(0, 1), J: vid(0, 0), C: 5},
	)
	if _, err := sepsp.SolveConstraints(M*K, bad, &sepsp.Options{Decomposition: sepsp.GridDecomposition(coords)}); err != nil {
		fmt.Printf("\ncontradictory deadline correctly rejected: %v\n", err)
	} else {
		log.Fatal("infeasible system was not detected")
	}
}
