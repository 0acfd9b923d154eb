package pram

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestForTiles2DCoversEveryCell: the tile decomposition partitions the
// rows×cols grid exactly — every cell visited once, every tile in range and
// aligned to the tile grid.
func TestForTiles2DCoversEveryCell(t *testing.T) {
	f := func(rRaw, cRaw uint8, pRaw, trRaw, tcRaw uint8) bool {
		rows, cols := int(rRaw%200), int(cRaw%200)
		p := int(pRaw%8) + 1
		tileR, tileC := int(trRaw%17)+1, int(tcRaw%17)+1
		ex := NewExecutor(p)
		covered := make([]int32, rows*cols)
		ex.ForTiles2D(rows, cols, tileR, tileC, func(r0, r1, c0, c1 int) {
			if r0 < 0 || r1 > rows || c0 < 0 || c1 > cols || r0 >= r1 || c0 >= c1 {
				t.Errorf("bad tile [%d,%d)x[%d,%d) for %dx%d", r0, r1, c0, c1, rows, cols)
			}
			if r0%tileR != 0 || c0%tileC != 0 {
				t.Errorf("unaligned tile origin (%d,%d)", r0, c0)
			}
			if r1-r0 > tileR || c1-c0 > tileC {
				t.Errorf("oversized tile [%d,%d)x[%d,%d)", r0, r1, c0, c1)
			}
			for i := r0; i < r1; i++ {
				for j := c0; j < c1; j++ {
					atomic.AddInt32(&covered[i*cols+j], 1)
				}
			}
		})
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForTiles2DEmpty(t *testing.T) {
	ex := NewExecutor(4)
	called := false
	ex.ForTiles2D(0, 10, 4, 4, func(r0, r1, c0, c1 int) { called = true })
	ex.ForTiles2D(10, 0, 4, 4, func(r0, r1, c0, c1 int) { called = true })
	if called {
		t.Fatal("empty grid invoked the tile body")
	}
}

func TestForTiles2DRejectsBadTiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive tile size did not panic")
		}
	}()
	NewExecutor(2).ForTiles2D(4, 4, 0, 4, func(r0, r1, c0, c1 int) {})
}

// TestForTiles2DBusyAccounting: one busy iteration is charged per tile, so
// LoadStats reflects kernel-tile imbalance the same way it does For loops.
func TestForTiles2DBusyAccounting(t *testing.T) {
	for _, p := range []int{1, 3} {
		ex := NewExecutor(p)
		ex.ForTiles2D(10, 10, 4, 4, func(r0, r1, c0, c1 int) {})
		var total int64
		for _, v := range ex.WorkerIters() {
			total += v
		}
		if total != 9 { // ceil(10/4)=3 per axis
			t.Fatalf("p=%d: busy iterations %d, want 9", p, total)
		}
	}
}

// TestForTiles2DPanicContainment: a panicking tile surfaces as *Panic in the
// caller (inline and multi-worker paths) and latches the executor state.
func TestForTiles2DPanicContainment(t *testing.T) {
	for _, p := range []int{1, 4} {
		ex := NewExecutor(p)
		func() {
			defer func() {
				r := recover()
				if _, ok := r.(*Panic); !ok {
					t.Fatalf("p=%d: recovered %T, want *Panic", p, r)
				}
			}()
			ex.ForTiles2D(8, 8, 2, 2, func(r0, r1, c0, c1 int) {
				if r0 == 4 && c0 == 4 {
					panic("tile boom")
				}
			})
			t.Fatalf("p=%d: no panic surfaced", p)
		}()
		if !ex.Failed() || ex.PanicCount() == 0 {
			t.Fatalf("p=%d: executor did not latch the panic", p)
		}
	}
}

// TestNestedForTiles2D: a round issued from inside another round's body on
// the same executor (a level's nodes, each running a tiled kernel) covers
// every cell exactly once, a panic in an inner tile reaches the outer
// caller as *Panic, and the executor stays usable afterwards.
func TestNestedForTiles2D(t *testing.T) {
	const outer, rows, cols = 8, 10, 10
	ex := NewExecutor(4)
	var covered [outer][rows * cols]int32
	nested := func(boom int) {
		ex.For(outer, func(o int) {
			ex.ForTiles2D(rows, cols, 3, 3, func(r0, r1, c0, c1 int) {
				if o == boom && r0 == 3 && c0 == 6 {
					panic("inner tile boom")
				}
				for i := r0; i < r1; i++ {
					for j := c0; j < c1; j++ {
						atomic.AddInt32(&covered[o][i*cols+j], 1)
					}
				}
			})
		})
	}

	coversOnce := func(when string) {
		covered = [outer][rows * cols]int32{}
		nested(-1)
		for o := range covered {
			for c, hits := range covered[o] {
				if hits != 1 {
					t.Fatalf("%s: outer %d cell %d ran %d times, want 1", when, o, c, hits)
				}
			}
		}
	}

	coversOnce("first round")
	if got := recoverPanic(t, func() { nested(5) }); got == nil {
		t.Fatal("inner tile panic did not reach the outer caller")
	}
	if !ex.Failed() {
		t.Fatal("executor did not latch the inner panic")
	}
	coversOnce("after the panic")
}
