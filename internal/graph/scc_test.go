package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reachable computes the reference reachability matrix by DFS.
func reachableRef(g *Digraph) [][]bool {
	n := g.N()
	out := make([][]bool, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		seen[s] = true
		stack := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Out(v, func(to int, _ float64) bool {
				if !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
				return true
			})
		}
		out[s] = seen
	}
	return out
}

func TestSCCMatchesMutualReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := rng.Intn(3 * n)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, Edge{rng.Intn(n), rng.Intn(n), 1})
		}
		g := FromEdges(n, edges)
		comp, count := SCC(g)
		reach := reachableRef(g)
		for u := 0; u < n; u++ {
			if comp[u] < 0 || comp[u] >= count {
				return false
			}
			for v := 0; v < n; v++ {
				same := comp[u] == comp[v]
				mutual := reach[u][v] && reach[v][u]
				if same != mutual {
					t.Errorf("seed=%d: comp(%d)=%d comp(%d)=%d but mutual=%v",
						seed, u, comp[u], v, comp[v], mutual)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := rng.Intn(4 * n)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, Edge{rng.Intn(n), rng.Intn(n), 1})
		}
		g := FromEdges(n, edges)
		comp, _ := SCC(g)
		ok := true
		g.Edges(func(from, to int, _ float64) bool {
			// Component ids strictly decrease along inter-component edges.
			if cf, ct := comp[from], comp[to]; cf != ct && cf <= ct {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	// A 200k-vertex cycle: recursive Tarjan would blow the stack; the
	// iterative version must handle it and find one component.
	n := 200000
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{i, (i + 1) % n, 1}
	}
	comp, count := SCC(FromEdges(n, edges))
	if count != 1 {
		t.Fatalf("count=%d", count)
	}
	for _, c := range comp {
		if c != 0 {
			t.Fatal("cycle split into components")
		}
	}
}
