package sepsp

// Integration tests for the overload-control stack at the public-API
// layer: priority-aware eviction, brownout answering shed low-priority
// queries exactly from the fallback engine, the rebuild circuit breaker's
// open→half-open→closed cycle on a deterministic clock, and a -race
// overload ramp asserting the priority latency contract.

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"sepsp/internal/baseline"
	"sepsp/internal/faultinject"
)

// TestServerPriorityEviction holds the dispatcher (newServer never starts
// run) so admission decisions are the only moving part: background
// requests fill the window, then an interactive arrival displaces the
// youngest of them, which must be answered ErrServerOverloaded on its own
// goroutine — the internal errEvicted sentinel must never escape.
func TestServerPriorityEviction(t *testing.T) {
	ix, _ := serverIndex(t)
	srv, err := newServer(ix, &ServerOptions{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.q.Close()

	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	bgErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(src int) {
			_, err := srv.SSSP(WithPriority(bctx, PriorityBackground), src)
			bgErr <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.q.Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background requests never queued (len=%d)", srv.q.Len())
		}
		time.Sleep(time.Millisecond)
	}

	ictx, icancel := context.WithCancel(context.Background())
	defer icancel()
	iErr := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(ictx, 5) // default priority: interactive
		iErr <- err
	}()

	// The displaced background request resolves now; the interactive one
	// stays queued (no dispatcher) until its context is cancelled.
	select {
	case err := <-bgErr:
		if !errors.Is(err, ErrServerOverloaded) {
			t.Fatalf("evicted request got %v, want ErrServerOverloaded", err)
		}
		if errors.Is(err, errEvicted) {
			t.Fatalf("internal eviction sentinel escaped to the caller: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eviction never resolved the victim")
	}
	if got := srv.nEvicted.Load(); got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}
	if h := srv.Healthz(); h.Evicted != 1 {
		t.Fatalf("Healthz().Evicted = %d, want 1", h.Evicted)
	}
	// Brownout must not have engaged off a single eviction, and the victim
	// was refused, not answered degraded.
	if got := srv.Healthz().Brownouts; got != 0 {
		t.Fatalf("brownouts = %d, want 0", got)
	}

	icancel()
	if err := <-iErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued interactive request got %v after cancel, want context.Canceled", err)
	}
	bcancel()
	if err := <-bgErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("remaining background request got %v after cancel, want context.Canceled", err)
	}
}

// TestServerBrownoutExactAnswers verifies the brownout contract end to end:
// once sustained shedding engages brownout, a shed batch query is answered
// on its own goroutine from the baseline fallback engine — bit-identical to
// Dijkstra on the same graph — while interactive queries keep being refused
// outright and are never browned out.
func TestServerBrownoutExactAnswers(t *testing.T) {
	g, grid := gridGraph(t, 8, 8, 7)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord), Fallback: FallbackBaseline})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(ix, &ServerOptions{
		MaxInFlight: 2,
		// Engage on the very first shed: one Note(true) moves the EWMA to
		// its alpha (0.05), past this threshold.
		Admission: &AdmissionOptions{BrownoutThreshold: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.q.Close()

	// Occupy the whole window with queued interactive requests (the
	// dispatcher is never started, so they stay queued).
	octx, ocancel := context.WithCancel(context.Background())
	defer ocancel()
	occErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(src int) {
			_, err := srv.SSSP(octx, src)
			occErr <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.q.Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("occupants never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// A batch arrival cannot evict interactive work, so it is shed — and
	// the shed engages brownout, which must answer it exactly.
	src := 17
	dist, err := srv.SSSP(WithPriority(context.Background(), PriorityBatch), src)
	if err != nil {
		t.Fatalf("browned-out batch query failed: %v", err)
	}
	want, err := baseline.Dijkstra(refGraph(g), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != len(want) {
		t.Fatalf("brownout answer has %d distances, want %d", len(dist), len(want))
	}
	for v := range want {
		if math.Float64bits(dist[v]) != math.Float64bits(want[v]) {
			t.Fatalf("brownout answer not byte-identical to Dijkstra at v=%d: %v vs %v",
				v, dist[v], want[v])
		}
	}
	if got := srv.Healthz().Brownouts; got != 1 {
		t.Fatalf("brownouts = %d, want 1", got)
	}
	if !srv.brown.Active() {
		t.Fatal("brownout detector not active after engaging")
	}

	// An interactive arrival over the same full window is refused, never
	// browned out.
	_, err = srv.SSSP(context.Background(), src)
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("interactive over full window got %v, want ErrServerOverloaded", err)
	}
	if errors.Is(err, ErrBrownout) {
		t.Fatalf("interactive refusal carries ErrBrownout: %v", err)
	}
	if got := srv.Healthz().Brownouts; got != 1 {
		t.Fatalf("interactive query was browned out (count %d, want 1)", got)
	}

	ocancel()
	<-occErr
	<-occErr
}

// TestManagerRebuildBreakerOpensAndRecovers drives the rebuild circuit
// breaker through its full cycle on a deterministic clock: consecutive
// failed rebuilds open it, an open breaker refuses reweights with
// ErrBreakerOpen without running them, and after the cooldown one
// successful half-open probe closes it again.
func TestManagerRebuildBreakerOpensAndRecovers(t *testing.T) {
	ix, good, _ := reweightFixture(t, 2)
	var clock struct {
		mu sync.Mutex
		t  time.Time
	}
	clock.t = time.Unix(1_700_000_000, 0)
	now := func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.t
	}
	advance := func(d time.Duration) {
		clock.mu.Lock()
		clock.t = clock.t.Add(d)
		clock.mu.Unlock()
	}
	m := NewManager(ix, &ManagerOptions{
		RebuildBreaker: BreakerOptions{FailureThreshold: 2, Cooldown: time.Minute, now: now},
	})
	if got := m.BreakerState(); got != BreakerClosed {
		t.Fatalf("initial breaker state = %v, want closed", got)
	}

	// A graph with a different skeleton fails every rebuild.
	bad, _ := gridGraph(t, 7, 7, 3)
	for i := 0; i < 2; i++ {
		if _, err := m.Reweight(context.Background(), bad); !errors.Is(err, ErrRebuildFailed) {
			t.Fatalf("rebuild %d: err = %v, want ErrRebuildFailed", i, err)
		}
	}
	if got := m.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker state after %d failures = %v, want open", 2, got)
	}

	// Open: even a good reweight is refused without running — the failure
	// counter must not move.
	if _, err := m.Reweight(context.Background(), good); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("reweight under open breaker: err = %v, want ErrBreakerOpen", err)
	}
	if got := m.RebuildFailures(); got != 2 {
		t.Fatalf("failures = %d after a blocked reweight, want 2", got)
	}

	// Cooldown elapses; the next reweight is the half-open probe and its
	// success closes the breaker and swaps the epoch.
	advance(time.Minute + time.Second)
	epoch, err := m.Reweight(context.Background(), good)
	if err != nil {
		t.Fatalf("half-open probe rebuild failed: %v", err)
	}
	if epoch != 2 || m.Epoch() != 2 || m.Swaps() != 1 {
		t.Fatalf("probe did not swap: epoch=%d swaps=%d", m.Epoch(), m.Swaps())
	}
	if got := m.BreakerState(); got != BreakerClosed {
		t.Fatalf("breaker state after probe success = %v, want closed", got)
	}
}

// TestOverloadRampPriorityLatency is the -race overload-ramp chaos test:
// a live server with every wave stalled by injected latency takes ~4× its
// admission ceiling in mixed interactive/batch clients (brownout disabled,
// so priority shows up purely as eviction and retry). The contract: the
// server keeps real goodput, and interactive latency beats batch latency at
// the tail, because interactive arrivals displace queued batch work.
func TestOverloadRampPriorityLatency(t *testing.T) {
	g, grid := gridGraph(t, 6, 6, 41)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 99,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SiteServerWave: {DelayPerMille: 1000, Delay: 2 * time.Millisecond},
		},
	})
	srv, err := NewServer(ix, &ServerOptions{
		MaxBatch:    4,
		MaxInFlight: 8,
		Inject:      inj,
		Admission:   &AdmissionOptions{BrownoutThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clientsPerClass, quota = 16, 10
	var cls [2]struct {
		mu sync.Mutex
		ds []time.Duration // elapsed per request, successes AND failures
		ok int
	}
	var wg sync.WaitGroup
	for class := 0; class < 2; class++ {
		p := PriorityInteractive
		if class == 1 {
			p = PriorityBatch
		}
		for c := 0; c < clientsPerClass; c++ {
			wg.Add(1)
			go func(class, c int, p Priority) {
				defer wg.Done()
				ctx := WithPriority(context.Background(), p)
				retry := &RetryOptions{
					MaxAttempts: 12,
					BaseDelay:   200 * time.Microsecond,
					MaxDelay:    5 * time.Millisecond,
					Seed:        int64(1 + class*1000 + c),
				}
				for i := 0; i < quota; i++ {
					src := (class*31 + c*7 + i) % ix.g.N()
					start := time.Now()
					_, err := RetryValue(ctx, retry, func() ([]float64, error) {
						return srv.SSSP(ctx, src)
					})
					// A failed request's elapsed counts too — the time its
					// caller wasted before giving up is the latency it
					// experienced; dropping it would censor exactly the
					// slow tail the priority contract is about.
					d := time.Since(start)
					cls[class].mu.Lock()
					cls[class].ds = append(cls[class].ds, d)
					if err == nil {
						cls[class].ok++
					}
					cls[class].mu.Unlock()
				}
			}(class, c, p)
		}
	}
	wg.Wait()

	perClass := int64(clientsPerClass * quota)
	okI, okB := int64(cls[0].ok), int64(cls[1].ok)
	// Goodput floor: with retries, well over half the offered load must be
	// answered even at 4× the ceiling.
	if ok := okI + okB; ok < perClass {
		t.Fatalf("goodput %d/%d under overload, want at least half", ok, 2*perClass)
	}
	// Interactive arrivals evict queued batch work and are never evicted by
	// it, so interactive goodput must dominate.
	if okI < okB {
		t.Fatalf("interactive goodput %d below batch goodput %d under overload", okI, okB)
	}
	if okI < perClass*3/4 {
		t.Fatalf("interactive goodput %d/%d, want at least 3/4 of offered load", okI, perClass)
	}
	p99 := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(len(ds)*99)/100]
	}
	pI, pB := p99(cls[0].ds), p99(cls[1].ds)
	// Interactive must not lose the tail: batch p99 is inflated by evicted
	// requests burning their whole retry budget, while interactive p99 may
	// approach that same budget from the loaded-but-admitted side — both
	// tails are pinned by the shared backoff ceiling, so the ratio is
	// stable and the 1.3 headroom absorbs scheduler noise. The decisive
	// priority signal is the goodput dominance asserted above.
	if float64(pI) > 1.3*float64(pB) {
		t.Fatalf("interactive p99 %v does not beat batch p99 %v", pI, pB)
	}
	h := srv.Healthz()
	t.Logf("goodput interactive=%d/%d batch=%d/%d p99 interactive=%v batch=%v evicted=%d rejected=%d limit=%d",
		okI, perClass, okB, perClass, pI, pB, h.Evicted, h.Rejected, h.EffectiveLimit)
}
