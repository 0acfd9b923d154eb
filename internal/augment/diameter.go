package augment

import (
	"math"

	"sepsp/internal/graph"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// DiameterBound returns the paper's Theorem 3.1(ii) bound on the
// minimum-weight diameter of the augmented graph: 4·d_G + 2ℓ + 1, with
// ℓ = t.Ell() (a path inside an O(1)-size leaf needs at most |V(leaf)|−1
// edges when no negative cycles exist).
func DiameterBound(t *separator.Tree) int {
	return 4*t.Height + 2*t.Ell() + 1
}

// MinWeightDiameter measures the minimum-weight diameter (Section 2.2) of
// the graph with vertex count n and the given edge list: the maximum over
// reachable ordered pairs (u, v) of the minimum number of edges of any
// minimum-weight u→v path. It runs a hop-bounded Bellman-Ford from every
// source (O(n · m · diam) work), so it is intended for validation on
// moderate sizes, not production use. maxHops caps the per-source phase
// count; if some pair has not stabilized within maxHops phases, maxHops+1 is
// returned (a lower bound). Requires the graph to have no negative cycles.
func MinWeightDiameter(n int, edges []graph.Edge, maxHops int, ex *pram.Executor) int {
	if ex == nil {
		ex = pram.Sequential
	}
	diams := make([]int, n)
	ex.For(n, func(src int) {
		dist := make([]float64, n)
		inf := math.Inf(1)
		for i := range dist {
			dist[i] = inf
		}
		dist[src] = 0
		// firstStable[v]: first phase h with dist_h[v] == final value. Since
		// dist_h is monotone nonincreasing in h, it is the last phase that
		// changed v (0 if never changed after initialization).
		lastChange := make([]int, n)
		worst := 0
		for h := 1; h <= maxHops; h++ {
			changed := false
			for _, e := range edges {
				if du := dist[e.From]; !math.IsInf(du, 1) && du+e.W < dist[e.To] {
					dist[e.To] = du + e.W
					lastChange[e.To] = h
					changed = true
				}
			}
			if !changed {
				for _, h := range lastChange {
					if h > worst {
						worst = h
					}
				}
				diams[src] = worst
				return
			}
		}
		diams[src] = maxHops + 1
	})
	worst := 0
	for _, d := range diams {
		if d > worst {
			worst = d
		}
	}
	return worst
}
