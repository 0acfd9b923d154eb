package pram

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 100} {
		ex := NewExecutor(p)
		for _, n := range []int{0, 1, 2, 7, 100, 1001} {
			seen := make([]int32, n)
			ex.For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, c)
				}
			}
		}
	}
}

// TestForDynamicCoversEveryIndex: on a fresh executor, every index of the
// pooled cursor round runs exactly once for every worker count, including
// fewer indices than workers, and one busy iteration is charged per index.
func TestForDynamicCoversEveryIndex(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			ex := NewExecutor(p)
			hits := make([]int32, n)
			ex.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d ran %d times", p, n, i, h)
				}
			}
			var total int64
			for _, v := range ex.WorkerIters() {
				total += v
			}
			if total != int64(n) {
				t.Fatalf("p=%d n=%d: busy iterations %d, want %d", p, n, total, n)
			}
		}
	}
}

func TestForChunkedPartitions(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw % 2000)
		p := int(pRaw%16) + 1
		ex := NewExecutor(p)
		var total atomic.Int64
		covered := make([]int32, n)
		ex.ForChunked(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
			total.Add(int64(hi - lo))
		})
		if total.Load() != int64(n) {
			return false
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialIsDeterministicOrder(t *testing.T) {
	var order []int
	Sequential.For(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	var s Stats
	s.AddWork(5)
	s.AddWork(7)
	s.AddRounds(2)
	if s.Work() != 12 || s.Rounds() != 2 {
		t.Fatalf("work=%d rounds=%d", s.Work(), s.Rounds())
	}
	s.Reset()
	if s.Work() != 0 || s.Rounds() != 0 {
		t.Fatal("reset failed")
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.AddWork(1)
	s.AddRounds(1)
	if s.Work() != 0 || s.Rounds() != 0 {
		t.Fatal("nil stats should discard")
	}
}

func TestStatsConcurrent(t *testing.T) {
	var s Stats
	ex := NewExecutor(8)
	ex.For(1000, func(i int) {
		s.AddWork(1)
		s.AddRounds(1)
	})
	if s.Work() != 1000 || s.Rounds() != 1000 {
		t.Fatalf("work=%d rounds=%d", s.Work(), s.Rounds())
	}
}

func TestNewExecutorDefaults(t *testing.T) {
	if NewExecutor(0).P() < 1 {
		t.Fatal("default executor has no workers")
	}
	if NewExecutor(-3).P() < 1 {
		t.Fatal("negative worker count not defaulted")
	}
	if Sequential.P() != 1 {
		t.Fatal("Sequential must have P=1")
	}
}

func TestWorkerItersAndLoadStats(t *testing.T) {
	// Skewed workload: n=5 on P=4 chunks as 2,2,1 and leaves a slot idle,
	// whichever workers take the chunks — imbalance must exceed 1. The
	// loop body is irrelevant; only iteration counts are.
	ex := NewExecutor(4)
	ex.ForChunked(5, func(lo, hi int) {})
	iters := ex.WorkerIters()
	var total int64
	for _, v := range iters {
		total += v
	}
	if total != 5 {
		t.Fatalf("busy iterations sum to %d, want 5 (%v)", total, iters)
	}
	max, mean, imb := ex.LoadStats()
	if max < 2 || mean != 1.25 {
		t.Fatalf("max=%d mean=%v, want max >= 2 and mean 1.25", max, mean)
	}
	if imb <= 1 {
		t.Fatalf("skewed workload on P=4 reports imbalance %v, want > 1", imb)
	}

	// P=1: everything lands on worker 0, imbalance is exactly 1.
	seq := NewExecutor(1)
	seq.For(5, func(i int) {})
	seq.ForChunked(3, func(lo, hi int) {})
	if _, _, imb := seq.LoadStats(); imb != 1 {
		t.Fatalf("P=1 imbalance %v, want exactly 1", imb)
	}
	if iters := seq.WorkerIters(); len(iters) != 1 || iters[0] != 8 {
		t.Fatalf("P=1 worker iters %v, want [8]", iters)
	}

	seq.ResetWorkerIters()
	if _, _, imb := seq.LoadStats(); imb != 1 {
		t.Fatalf("idle executor imbalance %v, want 1", imb)
	}
	if iters := seq.WorkerIters(); iters[0] != 0 {
		t.Fatalf("reset left %v", iters)
	}
}

func TestForChunkedCountsBusyIters(t *testing.T) {
	ex := NewExecutor(3)
	ex.ForChunked(10, func(lo, hi int) {})
	var total int64
	for _, v := range ex.WorkerIters() {
		total += v
	}
	if total != 10 {
		t.Fatalf("ForChunked busy iterations sum to %d, want 10", total)
	}
}
