package distcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func vec(n int, base float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = base + float64(i)
	}
	return v
}

func TestRoundTripAndCopySemantics(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	if c == nil {
		t.Fatal("New returned nil for a positive budget")
	}
	want := vec(16, 100)
	if !c.Put(3, 1, want) {
		t.Fatal("Put rejected an in-budget vector")
	}
	got, ok := c.Get(3, 1)
	if !ok {
		t.Fatal("Get missed a just-inserted key")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The returned slice is the caller's: mutating it must not alter the
	// cached canonical vector.
	got[0] = -1
	got2, ok := c.Get(3, 1)
	if !ok || got2[0] != 100 {
		t.Fatalf("cached vector corrupted by caller mutation: got2[0]=%v ok=%v", got2[0], ok)
	}
	if _, ok := c.Get(3, 2); ok {
		t.Fatal("Get hit on wrong epoch")
	}
	if _, ok := c.Get(4, 1); ok {
		t.Fatal("Get hit on wrong source")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 entry", st)
	}
}

func TestGetAt(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Put(7, 2, vec(8, 50))
	d, ok := c.GetAt(7, 2, 3)
	if !ok || d != 53 {
		t.Fatalf("GetAt = %v,%v want 53,true", d, ok)
	}
	if _, ok := c.GetAt(7, 2, 8); ok {
		t.Fatal("GetAt accepted out-of-range vertex")
	}
	if _, ok := c.GetAt(7, 1, 0); ok {
		t.Fatal("GetAt hit on wrong epoch")
	}
}

func TestBudgetEviction(t *testing.T) {
	const n = 128
	per := int64(n*8) + entryOverhead
	// Room for exactly 3 vectors.
	c := New(Config{MaxBytes: 3 * per})
	for s := 0; s < 3; s++ {
		if !c.Put(s, 1, vec(n, float64(s))) {
			t.Fatalf("Put(%d) rejected under budget", s)
		}
	}
	// Touch 0 and 2 so 1 is the LRU victim.
	c.Get(0, 1)
	c.Get(2, 1)
	if !c.Put(3, 1, vec(n, 3)) {
		t.Fatal("Put(3) rejected")
	}
	if _, ok := c.Get(1, 1); ok {
		t.Fatal("LRU victim 1 still resident")
	}
	for _, s := range []int{0, 2, 3} {
		if _, ok := c.Get(s, 1); !ok {
			t.Fatalf("source %d evicted, want resident", s)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 3*per {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 3*per)
	}
}

// TestBudgetHoldsEveryVector pins the sizing rule: a budget of exactly k
// vectors holds all k without evicting.
func TestBudgetHoldsEveryVector(t *testing.T) {
	const n = 1024
	per := int64(n*8) + entryOverhead
	for _, k := range []int{4, 8, 16, 64} {
		c := New(Config{MaxBytes: int64(k) * per})
		for s := 0; s < k; s++ {
			c.Put(s, 1, vec(n, float64(s)))
		}
		for s := 0; s < k; s++ {
			if _, ok := c.GetAt(s, 1, 0); !ok {
				t.Errorf("k=%d: source %d not resident", k, s)
			}
		}
		if st := c.Stats(); st.Entries != int64(k) || st.Evictions != 0 || st.Bytes != int64(k)*per {
			t.Errorf("k=%d: stats = %+v, want %d entries, 0 evictions, %d bytes", k, st, k, int64(k)*per)
		}
	}
}

// TestStatsBytesExactAfterConcurrentPuts checks that concurrent Puts never
// leave Stats().Bytes behind the resident entries it accounts for.
func TestStatsBytesExactAfterConcurrentPuts(t *testing.T) {
	const n, writers, puts = 16, 8, 64
	per := int64(n*8) + entryOverhead
	for round := 0; round < 200; round++ {
		c := New(Config{MaxBytes: 1 << 30})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < puts; i++ {
					c.Put(w*puts+i, 1, vec(n, 0))
				}
			}(w)
		}
		wg.Wait()
		if st := c.Stats(); st.Entries != writers*puts || st.Bytes != st.Entries*per {
			t.Fatalf("round %d: stats = %+v, want %d entries of %d bytes", round, st, writers*puts, per)
		}
	}
}

func TestEvictionPrefersStaleGeneration(t *testing.T) {
	const n = 64
	per := int64(n*8) + entryOverhead
	c := New(Config{MaxBytes: 3 * per})
	c.Put(0, 1, vec(n, 0))
	c.Put(1, 2, vec(n, 1))
	c.Put(2, 2, vec(n, 2))
	c.BumpGeneration(2)
	// Source 0 (epoch 1) is stale; it must be the victim even though it is
	// the most recently touched.
	c.Get(0, 1)
	if !c.Put(3, 2, vec(n, 3)) {
		t.Fatal("Put(3) rejected")
	}
	if _, ok := c.Get(0, 1); ok {
		t.Fatal("stale-epoch entry survived eviction over fresh entries")
	}
	for _, s := range []int{1, 2, 3} {
		if _, ok := c.Get(s, 2); !ok {
			t.Fatalf("fresh source %d evicted instead of stale entry", s)
		}
	}
}

func TestPutRejectsStaleEpochAndOversize(t *testing.T) {
	c := New(Config{MaxBytes: 4096})
	c.BumpGeneration(5)
	if c.Put(0, 4, vec(8, 0)) {
		t.Fatal("Put admitted a stale-epoch vector")
	}
	if c.Put(0, 5, make([]float64, 4096)) {
		t.Fatal("Put admitted a vector exceeding the budget")
	}
	if !c.Put(0, 5, vec(8, 0)) {
		t.Fatal("Put rejected a current-epoch in-budget vector")
	}
	if c.Generation() != 5 {
		t.Fatalf("generation = %d, want 5", c.Generation())
	}
	// BumpGeneration never goes backwards.
	c.BumpGeneration(3)
	if c.Generation() != 5 {
		t.Fatalf("generation regressed to %d", c.Generation())
	}
}

func TestDuplicatePutKeepsResident(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Put(1, 1, vec(8, 0))
	if !c.Put(1, 1, vec(8, 0)) {
		t.Fatal("duplicate Put reported rejection")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after duplicate Put, want 1", st.Entries)
	}
}

func TestSingleFlightSharing(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	const waiters = 8
	var computes atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, waiters)

	var wg sync.WaitGroup
	hows := make([]How, waiters)
	dists := make([][]float64, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			dists[i], hows[i], errs[i] = c.Do(context.Background(), 5, 1, func() ([]float64, uint64, bool, error) {
				computes.Add(1)
				<-gate
				return vec(16, 5), 1, true, nil
			})
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	// Let the leader enter compute and the rest park on the flight.
	deadline := time.After(2 * time.Second)
	for computes.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no leader entered compute")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond) // park the waiters
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1", n)
	}
	var computed, shared int
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		for j, d := range dists[i] {
			if d != float64(5+j) {
				t.Fatalf("waiter %d dist[%d] = %v", i, j, d)
			}
		}
		switch hows[i] {
		case Computed:
			computed++
		case Shared:
			shared++
		default:
			t.Fatalf("waiter %d answered %v, want Computed or Shared", i, hows[i])
		}
	}
	if computed != 1 || shared != waiters-1 {
		t.Fatalf("computed=%d shared=%d, want 1 and %d", computed, shared, waiters-1)
	}
	if st := c.Stats(); st.Misses != 1 || st.Shared != waiters-1 {
		t.Fatalf("stats = %+v", st)
	}
	// The vector was admitted: a fresh Do must be a Hit.
	_, how, err := c.Do(context.Background(), 5, 1, func() ([]float64, uint64, bool, error) {
		t.Fatal("compute ran on a cached key")
		return nil, 0, false, nil
	})
	if err != nil || how != Hit {
		t.Fatalf("post-flight Do = %v,%v want Hit", how, err)
	}
}

// TestDoRepeeksAfterLateSettle covers a caller that reaches Do while a
// leader is admitting and settling the same key: whatever the leader
// admitted before the caller takes the lock must answer it, instead of a
// second flight that recomputes the vector.
func TestDoRepeeksAfterLateSettle(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	var computes atomic.Int64
	type answer struct {
		dist []float64
		how  How
		err  error
	}
	done := make(chan answer, 1)
	c.mu.Lock()
	go func() {
		dist, how, err := c.Do(context.Background(), 5, 1, func() ([]float64, uint64, bool, error) {
			computes.Add(1)
			return vec(16, 0), 1, true, nil
		})
		done <- answer{dist, how, err}
	}()
	// Wait until the caller blocks on the cache lock.
	deadline := time.Now().Add(2 * time.Second)
	for !parkedInDo() {
		if time.Now().After(deadline) {
			c.mu.Unlock()
			t.Fatal("Do never blocked on the cache lock")
		}
		time.Sleep(time.Millisecond)
	}
	// The leader's admission lands while the caller waits.
	c.insertLocked(&entry{k: key{5, 1}, dist: vec(16, 5), bytes: 16*8 + entryOverhead})
	c.mu.Unlock()
	a := <-done
	if a.err != nil || a.how != Hit {
		t.Fatalf("Do = %v,%v want Hit", a.how, a.err)
	}
	if n := computes.Load(); n != 0 {
		t.Fatalf("compute ran %d times on a key settled before the flight", n)
	}
	for j, d := range a.dist {
		if d != float64(5+j) {
			t.Fatalf("dist[%d] = %v", j, d)
		}
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Fatalf("stats = %+v, want no miss", st)
	}
}

// parkedInDo reports whether some goroutine is inside Cache.Do and
// acquiring a mutex.
func parkedInDo() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "distcache.(*Cache).Do(") && strings.Contains(g, "Mutex).") {
			return true
		}
	}
	return false
}

func TestSingleFlightSharedError(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	hows := make([]How, 4)
	leaderIn := make(chan struct{})
	var once sync.Once
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hows[i], errs[i] = c.Do(context.Background(), 9, 1, func() ([]float64, uint64, bool, error) {
				once.Do(func() { close(leaderIn) })
				<-gate
				return nil, 0, false, boom
			})
		}(i)
	}
	<-leaderIn
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d err = %v, want boom (how=%v)", i, err, hows[i])
		}
	}
	// A failed flight caches nothing.
	if _, ok := c.Get(9, 1); ok {
		t.Fatal("failed flight admitted a vector")
	}
}

func TestSingleFlightLeaderPromotion(t *testing.T) {
	// Leader's own ctx is cancelled mid-compute: its error is leader-local,
	// so a parked waiter must re-race, win leadership, and succeed.
	c := New(Config{MaxBytes: 1 << 20})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	var computes atomic.Int64

	var wg sync.WaitGroup
	var leaderErr, waiterErr error
	var waiterHow How
	var waiterDist []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(leaderCtx, 2, 1, func() ([]float64, uint64, bool, error) {
			computes.Add(1)
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, 0, false, leaderCtx.Err()
		})
	}()
	<-leaderIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterDist, waiterHow, waiterErr = c.Do(context.Background(), 2, 1, func() ([]float64, uint64, bool, error) {
			computes.Add(1)
			return vec(8, 2), 1, true, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	cancelLeader()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", leaderErr)
	}
	if waiterErr != nil {
		t.Fatalf("promoted waiter err = %v", waiterErr)
	}
	if waiterHow != Computed {
		t.Fatalf("promoted waiter answered %v, want Computed", waiterHow)
	}
	if len(waiterDist) != 8 || waiterDist[0] != 2 {
		t.Fatalf("promoted waiter dist = %v", waiterDist)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("computes = %d, want 2 (original leader + promoted waiter)", n)
	}
}

func TestSingleFlightWaiterCancellation(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), 1, 1, func() ([]float64, uint64, bool, error) {
			close(leaderIn)
			<-gate
			return vec(4, 0), 1, true, nil
		})
	}()
	<-leaderIn
	cause := errors.New("queue timeout")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, _, err := c.Do(ctx, 1, 1, func() ([]float64, uint64, bool, error) {
		t.Error("cancelled waiter ran compute")
		return nil, 0, false, nil
	})
	if !errors.Is(err, cause) {
		t.Fatalf("cancelled waiter err = %v, want cause", err)
	}
	close(gate)
	wg.Wait()
}

func TestSingleFlightLeaderPanic(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	panicked := make(chan any, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), 4, 1, func() ([]float64, uint64, bool, error) {
			close(leaderIn)
			<-gate
			panic("kernel exploded")
		})
	}()
	<-leaderIn
	var waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, waiterErr = c.Do(context.Background(), 4, 1, func() ([]float64, uint64, bool, error) {
			t.Error("waiter recomputed after leader panic")
			return nil, 0, false, nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if p := <-panicked; p != "kernel exploded" {
		t.Fatalf("leader panic = %v, want to propagate", p)
	}
	if !errors.Is(waiterErr, ErrLeaderPanicked) {
		t.Fatalf("waiter err = %v, want ErrLeaderPanicked", waiterErr)
	}
	// The flight must be cleaned up: a later Do computes fresh.
	dist, how, err := c.Do(context.Background(), 4, 1, func() ([]float64, uint64, bool, error) {
		return vec(4, 4), 1, true, nil
	})
	if err != nil || how != Computed || dist[0] != 4 {
		t.Fatalf("post-panic Do = %v,%v,%v", dist, how, err)
	}
}

func TestAdmissionGateRespected(t *testing.T) {
	// compute says admit=false (degraded result): answered but never cached.
	c := New(Config{MaxBytes: 1 << 20})
	dist, how, err := c.Do(context.Background(), 6, 1, func() ([]float64, uint64, bool, error) {
		return vec(4, 6), 1, false, nil
	})
	if err != nil || how != Computed || dist[0] != 6 {
		t.Fatalf("Do = %v,%v,%v", dist, how, err)
	}
	if _, ok := c.Get(6, 1); ok {
		t.Fatal("degraded result was admitted")
	}
}

func TestDoAdmitsUnderServedEpoch(t *testing.T) {
	// A swap raced the computation: compute served epoch 2 though the
	// flight was keyed at epoch 1. The vector must be cached under 2.
	c := New(Config{MaxBytes: 1 << 20})
	_, _, err := c.Do(context.Background(), 8, 1, func() ([]float64, uint64, bool, error) {
		return vec(4, 8), 2, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(8, 1); ok {
		t.Fatal("vector cached under the stale flight key")
	}
	if _, ok := c.Get(8, 2); !ok {
		t.Fatal("vector not cached under the serving epoch")
	}
}

func TestDoLeaderVectorIsCallerOwned(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	dist, _, err := c.Do(context.Background(), 1, 1, func() ([]float64, uint64, bool, error) {
		return vec(4, 1), 1, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dist[0] = -99
	got, ok := c.Get(1, 1)
	if !ok || got[0] != 1 {
		t.Fatalf("canonical vector corrupted by leader mutation: %v %v", got, ok)
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(0, 0); ok {
		t.Fatal("nil Get hit")
	}
	if _, ok := c.GetAt(0, 0, 0); ok {
		t.Fatal("nil GetAt hit")
	}
	if c.Put(0, 0, vec(4, 0)) {
		t.Fatal("nil Put admitted")
	}
	c.BumpGeneration(5)
	if c.Generation() != 0 {
		t.Fatal("nil Generation != 0")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	dist, how, err := c.Do(context.Background(), 3, 1, func() ([]float64, uint64, bool, error) {
		return vec(4, 3), 1, true, nil
	})
	if err != nil || how != Computed || dist[0] != 3 {
		t.Fatalf("nil Do = %v,%v,%v want passthrough compute", dist, how, err)
	}
	if New(Config{MaxBytes: 0}) != nil {
		t.Fatal("New(0 budget) != nil")
	}
}

func TestConcurrentHammer(t *testing.T) {
	// Race-detector stress: concurrent Get/Put/Do/BumpGeneration across
	// overlapping keys and epochs. Correctness assertion: a returned vector
	// is always internally consistent (dist[i] = src*1000 + i).
	const n = 32
	per := int64(n*8) + entryOverhead
	c := New(Config{MaxBytes: 8 * per})
	var epoch atomic.Uint64
	epoch.Store(1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() { close(stop) })

	wg.Add(1)
	go func() { // epoch bumper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(5 * time.Millisecond)
			e := epoch.Add(1)
			c.BumpGeneration(e)
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := rng.Intn(6)
				ep := epoch.Load()
				dist, _, err := c.Do(context.Background(), src, ep, func() ([]float64, uint64, bool, error) {
					return vec(n, float64(src*1000)), ep, true, nil
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				for i, d := range dist {
					if d != float64(src*1000+i) {
						t.Errorf("src %d: dist[%d] = %v", src, i, d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Shared == 0 {
		t.Fatal("hammer did no work")
	}
	t.Logf("hammer stats: %+v", st)
}

func BenchmarkGetHit(b *testing.B) {
	const n = 4096
	c := New(Config{MaxBytes: 64 << 20})
	c.Put(0, 1, vec(n, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(0, 1); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetAtHit(b *testing.B) {
	const n = 4096
	c := New(Config{MaxBytes: 64 << 20})
	c.Put(0, 1, vec(n, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.GetAt(0, 1, i%n); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkGetAtHitParallel measures point-query hits from every P on a
// cache holding 64 sources.
func BenchmarkGetAtHitParallel(b *testing.B) {
	const n, srcs = 4096, 64
	c := New(Config{MaxBytes: 64 << 20})
	for s := 0; s < srcs; s++ {
		c.Put(s, 1, vec(n, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.GetAt(i%srcs, 1, i%n); !ok {
				b.Error("miss")
				return
			}
			i++
		}
	})
}

// BenchmarkPutEvicting measures admission into a full cache of 1,020
// current-generation vectors, where every Put scans the whole recency
// list for a stale entry before evicting the least recently used.
func BenchmarkPutEvicting(b *testing.B) {
	const n, resident = 4096, 1020
	per := int64(n*8) + entryOverhead
	c := New(Config{MaxBytes: resident * per})
	v := vec(n, 0) // entries are immutable, so one vector can back them all
	for s := 0; s < resident; s++ {
		c.Put(s, 1, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(resident+i, 1, v)
	}
	if st := c.Stats(); st.Entries != resident {
		b.Fatalf("entries = %d, want %d", st.Entries, resident)
	}
}

func ExampleCache_Do() {
	c := New(Config{MaxBytes: 1 << 20})
	compute := func() ([]float64, uint64, bool, error) {
		return []float64{0, 1, 2}, 1, true, nil
	}
	dist, how, _ := c.Do(context.Background(), 0, 1, compute)
	fmt.Println(dist, how == Computed)
	dist, how, _ = c.Do(context.Background(), 0, 1, compute)
	fmt.Println(dist, how == Hit)
	// Output:
	// [0 1 2] true
	// [0 1 2] true
}
