package augment_test

import (
	"fmt"
	"testing"

	"sepsp/internal/augment"
	"sepsp/internal/exp"
	"sepsp/internal/graph"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// TestAssembleMatchesMapReference checks every E+ construction against the
// retained map collector, bit for bit: the same pairs, the same
// Float64bits weight per pair and the same RawCount. Workloads are the
// E-build grid (n=4096, seed 42) and the smallest E-esize workload of
// every separator exponent mu (seed 3).
func TestAssembleMatchesMapReference(t *testing.T) {
	type workload struct {
		wl *exp.Workload
		fw bool // E-esize closes per-node graphs with Floyd-Warshall
	}
	var wls []workload
	wl, err := exp.MuWorkload(0.5, 4096, 42)
	if err != nil {
		t.Fatal(err)
	}
	wls = append(wls, workload{wl, false})
	for _, sz := range []struct {
		mu float64
		n  int
	}{{0, 2000}, {0.5, 1024}, {2.0 / 3.0, 512}, {0.75, 256}} {
		wl, err := exp.MuWorkload(sz.mu, sz.n, 3)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, workload{wl, true})
	}
	runs := map[string]func(*graph.Digraph, *separator.Tree, augment.Config) (*augment.Result, error){
		"alg41": augment.Alg41, "alg43": augment.Alg43,
		"reach41": augment.Reach41, "reach43": augment.Reach43,
	}
	ex := pram.NewExecutor(2)
	for _, w := range wls {
		for _, alg := range []string{"alg41", "alg43", "reach41", "reach43"} {
			t.Run(fmt.Sprintf("%s/%s", w.wl.Name, alg), func(t *testing.T) {
				cfg := augment.Config{Ex: ex, UseFloydWarshall: w.fw}
				got, err := runs[alg](w.wl.G, w.wl.Tree, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := augment.ReferenceEPlus(alg, w.wl.G, w.wl.Tree, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if msg := augment.SameBits(got, want); msg != "" {
					t.Fatal(msg)
				}
			})
		}
	}
}
