package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// countdownCtx reports cancellation after its Err method has been polled n
// times — a deterministic stand-in for a deadline that fires mid-query.
type countdownCtx struct {
	n int
}

func (c *countdownCtx) Err() error {
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}
func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }

func contextTestEngine(t testing.TB) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	grid := gen.NewGrid([]int{10, 10}, gen.UniformWeights(0.5, 3), rng)
	sk := graph.NewSkeleton(grid.G)
	tree, err := separator.Build(sk, &separator.CoordinateFinder{Coord: grid.Coord}, separator.Options{LeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(grid.G, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSSSPContextCancelMidRun checks a context that dies after k phases
// stops the schedule within one phase: the counted rounds equal exactly the
// phases whose pre-phase poll succeeded.
func TestSSSPContextCancelMidRun(t *testing.T) {
	eng := contextTestEngine(t)
	total := eng.Schedule().Phases()
	for _, k := range []int{0, 1, 3, total / 2} {
		st := &pram.Stats{}
		dist, err := eng.SSSPContext(&countdownCtx{n: k}, 0, st)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if dist != nil {
			t.Fatalf("k=%d: got a distance vector on cancellation", k)
		}
		if got := st.Rounds(); got != int64(k) {
			t.Fatalf("k=%d: ran %d phases before stopping, want exactly %d", k, got, k)
		}
	}
}

// TestSSSPContextCompletesEqually checks a context that survives the whole
// schedule yields the same distances and the same counted work as the
// context-free path.
func TestSSSPContextCompletesEqually(t *testing.T) {
	eng := contextTestEngine(t)
	stPlain, stCtx := &pram.Stats{}, &pram.Stats{}
	want := eng.SSSP(7, stPlain)
	got, err := eng.SSSPContext(context.Background(), 7, stCtx)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v want %v", v, got[v], want[v])
		}
	}
	if stCtx.Work() != stPlain.Work() || stCtx.Rounds() != stPlain.Rounds() {
		t.Fatalf("context path counted work=%d rounds=%d, plain path work=%d rounds=%d",
			stCtx.Work(), stCtx.Rounds(), stPlain.Work(), stPlain.Rounds())
	}
}

// TestSourcesBatchedContextCancel checks the batched sweep also honors
// mid-run cancellation.
func TestSourcesBatchedContextCancel(t *testing.T) {
	eng := contextTestEngine(t)
	out, err := eng.SourcesBatchedContext(&countdownCtx{n: 2}, []int{0, 5}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("got rows on cancellation")
	}
	// And the full run matches the unbatched answers.
	rows, err := eng.SourcesBatchedContext(context.Background(), []int{0, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, src := range []int{0, 5} {
		want := eng.SSSP(src, nil)
		for v := range want {
			if rows[j][v] != want[v] {
				t.Fatalf("batched[%d][%d] = %v want %v", j, v, rows[j][v], want[v])
			}
		}
	}
}

// TestPhaseAtMatchesRunOrder checks the random-access PhaseAt enumeration
// against the exported phase order: phase i carries index i and PhaseOf's
// identity, PhaseOf's bucket id names the bucket its kind and level say
// (BucketAll for the ℓ sweeps, same[L] = L, desc[L] = h+L, asc[L] = 2h+L),
// and PhaseAt hands out exactly that arena bucket.
func TestPhaseAtMatchesRunOrder(t *testing.T) {
	eng := contextTestEngine(t)
	s := eng.Schedule()
	h := s.height + 1
	for i := 0; i < s.Phases(); i++ {
		ph, b := s.PhaseAt(i)
		of, id := PhaseOf(s.l, s.height, i)
		if ph.Index != i || ph != of {
			t.Fatalf("phase %d: PhaseAt = %+v, PhaseOf = %+v", i, ph, of)
		}
		want := map[PhaseKind]int{PhaseEllPre: BucketAll, PhaseEllPost: BucketAll,
			PhaseSameDown: ph.Level, PhaseSameUp: ph.Level, PhaseDesc: h + ph.Level, PhaseAsc: 2*h + ph.Level}[ph.Kind]
		if id != want {
			t.Fatalf("phase %d (%s L=%d): bucket id %d, want %d", i, ph.Kind, ph.Level, id, want)
		}
		if (id == BucketAll && b != &s.eAll) || (id != BucketAll && b != &s.lvl[id]) {
			t.Fatalf("phase %d: PhaseAt bucket is not bucket %d of the arena", i, id)
		}
	}
	if got := PhaseCount(s.l, s.height); got != s.Phases() {
		t.Fatalf("PhaseCount = %d, Phases = %d", got, s.Phases())
	}
}
