package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
)

// lockstepCost is the cost a wave over srcs must report: one
// WorkPerSource of work per distinct source, one of skipped work per
// duplicate, and Phases rounds.
func lockstepCost(e *Engine, srcs []int) (work, skipped, rounds int64) {
	distinct := map[int]bool{}
	for _, src := range srcs {
		distinct[src] = true
	}
	wps := e.schedule.WorkPerSource()
	return int64(len(distinct)) * wps, int64(len(srcs)-len(distinct)) * wps, int64(e.schedule.Phases())
}

// TestSourcesBatchedMatchesSources: on a P=2 executor and on the
// sequential one, waves of k = 1 (k < P), k = P, k > P, up to 40 sources
// (full and padded lane blocks) and waves with duplicate sources return
// rows bitwise equal to the solo SSSP and to SSSPReference of each source,
// and report the lock-step cost of their sources.
func TestSourcesBatchedMatchesSources(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{3 + rng.Intn(8), 3 + rng.Intn(8)}
		seq, g := buildGridEngine(t, dims, gen.UniformWeights(0.1, 4), seed, Config{})
		par := NewEngineFromParts(g, seq.Tree(), seq.Augmentation(), pram.NewExecutor(2))
		dup := rng.Perm(g.N())[:3]
		waves := [][]int{
			rng.Perm(g.N())[:1],
			rng.Perm(g.N())[:2],
			rng.Perm(g.N())[:3+rng.Intn(6)],
			rng.Perm(g.N())[:min(g.N(), 17+rng.Intn(24))],
			{dup[0], dup[1], dup[0], dup[2], dup[1]},
		}
		for _, srcs := range waves {
			stSeq, stPar := &pram.Stats{}, &pram.Stats{}
			a, err := seq.SourcesBatchedContext(context.Background(), srcs, stSeq)
			if err != nil {
				t.Fatal(err)
			}
			b := par.SourcesBatched(srcs, stPar)
			for i, src := range srcs {
				solo, ref := seq.SSSP(src, nil), seq.SSSPReference(src, nil)
				for v := range solo {
					bits := math.Float64bits(ref[v])
					if math.Float64bits(a[i][v]) != bits || math.Float64bits(b[i][v]) != bits || math.Float64bits(solo[v]) != bits {
						t.Errorf("seed=%d k=%d src=%d v=%d: P=1 wave %v, P=2 wave %v, SSSP %v, reference %v",
							seed, len(srcs), src, v, a[i][v], b[i][v], solo[v], ref[v])
						return false
					}
				}
			}
			work, skipped, rounds := lockstepCost(seq, srcs)
			for _, st := range []*pram.Stats{stSeq, stPar} {
				if st.Work() != work || st.SkippedWork() != skipped || st.Rounds() != rounds {
					t.Errorf("seed=%d srcs=%v: work/skipped/rounds = %d/%d/%d, want %d/%d/%d",
						seed, srcs, st.Work(), st.SkippedWork(), st.Rounds(), work, skipped, rounds)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestWaveWidth pins the block rule: no more blocks than can run at once,
// each as narrow as that allows, solo queries while every source gets its
// own worker, and never more than 16 lanes.
func TestWaveWidth(t *testing.T) {
	for _, c := range []struct{ k, p, want int }{
		{1, 1, 1}, {2, 1, 2}, {3, 1, 4}, {9, 1, 16}, {32, 1, 16},
		{2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {6, 2, 4}, {8, 2, 4}, {12, 2, 8}, {32, 2, 16}, {40, 2, 16},
		{4, 4, 1}, {5, 4, 2}, {32, 4, 8}, {64, 4, 16}, {100, 4, 16},
	} {
		if got := waveWidth(c.k, c.p); got != c.want {
			t.Errorf("waveWidth(k=%d, p=%d) = %d, want %d", c.k, c.p, got, c.want)
		}
	}
}

func TestSourcesBatchedEmpty(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{4, 4}, gen.UnitWeights(), 1, Config{})
	if out := eng.SourcesBatched(nil, nil); out != nil {
		t.Fatalf("want nil for empty sources, got %v", out)
	}
}

func TestSourcesBatchedDuplicateSources(t *testing.T) {
	eng, _ := buildGridEngine(t, []int{5, 5}, gen.UniformWeights(1, 2), 2, Config{})
	rows := eng.SourcesBatched([]int{3, 3, 7}, nil)
	for v := range rows[0] {
		if rows[0][v] != rows[1][v] {
			t.Fatal("duplicate sources must produce identical rows")
		}
	}
	// The fanned-out rows must be independent copies, not aliases: a
	// caller mutating one row must not see the change through another.
	rows[0][0] = -1
	if rows[1][0] == -1 {
		t.Fatal("duplicate rows alias the same backing array")
	}
}

// TestSourcesBatchedDedupExact is the dedup satellite's exactness gate: a
// wave with duplicate sources must return rows bit-identical to the
// undeduped solo answers, and its work accounting must reconcile to
// the same total schedule cost — Work + SkippedWork = k × WorkPerSource —
// with the duplicates' entire cost on the skipped side.
func TestSourcesBatchedDedupExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{3 + rng.Intn(8), 3 + rng.Intn(8)}
		eng, g := buildGridEngine(t, dims, gen.UniformWeights(0.1, 4), seed, Config{})
		// At least one guaranteed duplicate; the rest random (more may
		// collide).
		k := 3 + rng.Intn(6)
		srcs := make([]int, k)
		for i := range srcs {
			srcs[i] = rng.Intn(g.N())
		}
		srcs[k-1] = srcs[0]
		stDup, stSolo := &pram.Stats{}, &pram.Stats{}
		rows := eng.SourcesBatched(srcs, stDup)
		for i, src := range srcs {
			solo := eng.SSSP(src, stSolo)
			for v := range solo {
				if rows[i][v] != solo[v] {
					t.Errorf("seed=%d row=%d v=%d: %v vs %v", seed, i, v, rows[i][v], solo[v])
					return false
				}
			}
		}
		total := int64(k) * eng.schedule.WorkPerSource()
		if got := stDup.Work() + stDup.SkippedWork(); got != total {
			t.Errorf("seed=%d: work+skipped = %d, want k x WorkPerSource = %d", seed, got, total)
			return false
		}
		if stDup.Work() >= stSolo.Work() {
			t.Errorf("seed=%d: dedup executed %d work, undeduped %d — nothing collapsed", seed, stDup.Work(), stSolo.Work())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDedupSources(t *testing.T) {
	if u, l := dedupSources([]int{1, 2, 3}); u != nil || l != nil {
		t.Fatalf("distinct sources allocated a dedup plan: %v %v", u, l)
	}
	u, l := dedupSources([]int{5, 2, 5, 2, 9})
	wantU, wantL := []int{5, 2, 9}, []int{0, 1, 0, 1, 2}
	if len(u) != len(wantU) || len(l) != len(wantL) {
		t.Fatalf("dedup = %v %v, want %v %v", u, l, wantU, wantL)
	}
	for i := range wantU {
		if u[i] != wantU[i] {
			t.Fatalf("uniq = %v, want %v", u, wantU)
		}
	}
	for i := range wantL {
		if l[i] != wantL[i] {
			t.Fatalf("slot = %v, want %v", l, wantL)
		}
	}
	// Above the dense threshold the map path must agree.
	big := make([]int, dedupDenseThreshold+2)
	for i := range big {
		big[i] = i
	}
	big[len(big)-1] = big[0]
	u, l = dedupSources(big)
	if len(u) != len(big)-1 || l[len(big)-1] != 0 {
		t.Fatalf("map-path dedup: %d uniques, slot[last]=%d", len(u), l[len(big)-1])
	}
	if u, l = dedupSources(big[:len(big)-1]); u != nil || l != nil {
		t.Fatal("map-path distinct sources reported duplicates")
	}
}
