package sepsp

// Chaos tests: drive the serving stack with deterministic fault injection
// (panics, delays, cancellations at every instrumented boundary) from many
// concurrent clients and assert the robustness contract of ISSUE 3 — every
// request ends, with either a provably correct distance vector or a typed
// error, and the process never crashes. Run them under -race (`make chaos`).

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sepsp/internal/baseline"
	"sepsp/internal/faultinject"
)

// chaosReference precomputes exact distances from every vertex.
func chaosReference(t *testing.T, g *Graph) [][]float64 {
	t.Helper()
	ref := refGraph(g)
	want := make([][]float64, ref.N())
	for v := range want {
		var err error
		if want[v], err = baseline.Dijkstra(ref, v, nil); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// classifyChaosErr returns "" for an acceptable typed error and a complaint
// otherwise.
func classifyChaosErr(err error) string {
	var pe *PanicError
	switch {
	case errors.As(err, &pe),
		errors.Is(err, ErrServerOverloaded),
		errors.Is(err, ErrQueueTimeout),
		errors.Is(err, ErrServerClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return ""
	default:
		return "untyped error: " + err.Error()
	}
}

func TestChaosServingWithFallback(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 41)
	want := chaosReference(t, g)
	obsv := NewTelemetry(nil)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed:  1234,
		Delay: 100 * time.Microsecond,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker:   {PanicPerMille: 5, DelayPerMille: 20},
			faultinject.SiteQueryPhase:   {PanicPerMille: 5, DelayPerMille: 20},
			faultinject.SiteServerWave:   {PanicPerMille: 30, DelayPerMille: 50},
			faultinject.SiteClientCancel: {CancelPerMille: 100},
		},
	})
	ix, err := Build(g, &Options{
		Workers:   4,
		Fallback:  FallbackBaseline,
		Inject:    inj,
		Telemetry: obsv,
	})
	if err != nil {
		t.Fatalf("Build with fallback must degrade rather than fail: %v", err)
	}
	srv, err := NewServer(ix, &ServerOptions{
		MaxBatch:     8,
		MaxInFlight:  16,
		QueueTimeout: 250 * time.Millisecond,
		Inject:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	runChaosClients(t, srv, inj, want)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ix.Degraded() && obsv.reg.CounterValue("sepsp_fallback_engaged_total") == 0 {
		t.Fatal("index degraded but sepsp_fallback_engaged_total is zero")
	}
	if obsv.reg.CounterValue("sepsp_fallback_queries_total") > 0 && obsv.reg.CounterValue("sepsp_fallback_engaged_total") == 0 {
		t.Fatal("fallback served queries without a recorded engagement")
	}
}

func TestChaosServingFailFast(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 43)
	want := chaosReference(t, g)
	// No worker-site faults: the build path must succeed so the test
	// exercises fail-fast serving, where every fault surfaces as a typed
	// error instead of being absorbed by a fallback.
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed:  987,
		Delay: 100 * time.Microsecond,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SiteQueryPhase:   {PanicPerMille: 10, DelayPerMille: 20},
			faultinject.SiteServerWave:   {PanicPerMille: 30, DelayPerMille: 50},
			faultinject.SiteClientCancel: {CancelPerMille: 100},
		},
	})
	ix, err := Build(g, &Options{Workers: 4, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, &ServerOptions{
		MaxBatch:     8,
		MaxInFlight:  16,
		QueueTimeout: 250 * time.Millisecond,
		Inject:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	runChaosClients(t, srv, inj, want)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-chaos SSSP after Close: %v, want ErrServerClosed", err)
	}
}

// runChaosClients fires concurrent clients at srv. Each request either
// carries a plain context or (driven by the injector's client.cancel site)
// one that is cancelled underway; half the clients shield themselves with
// Retry. Every outcome must be a correct distance vector or a typed error.
func runChaosClients(t *testing.T, srv *Server, inj *faultinject.Seeded, want [][]float64) {
	t.Helper()
	const clients, perClient = 8, 30
	n := len(want)
	var wg sync.WaitGroup
	complaints := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			useRetry := c%2 == 0
			for i := 0; i < perClient; i++ {
				src := (c*perClient + i) % n
				ctx := context.Background()
				var cancel context.CancelFunc
				if inj.Fire(faultinject.SiteClientCancel) == faultinject.Cancel {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%3)*time.Millisecond)
				}
				op := func() ([]float64, error) { return srv.SSSP(ctx, src) }
				var dist []float64
				var err error
				if useRetry {
					dist, err = RetryValue(ctx, &RetryOptions{Seed: int64(c*1000 + i + 1), BaseDelay: 100 * time.Microsecond}, op)
				} else {
					dist, err = op()
				}
				if cancel != nil {
					cancel()
				}
				if err != nil {
					if msg := classifyChaosErr(err); msg != "" {
						complaints <- msg
					}
					continue
				}
				for v := range want[src] {
					if !approxEq(dist[v], want[src][v]) {
						complaints <- "wrong distance served"
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(complaints)
	for msg := range complaints {
		t.Fatal(msg)
	}
}

// TestChaosIndexConcurrent hammers a shared Index (no Server) from many
// goroutines while worker- and phase-boundary faults fire, asserting panic
// containment composes with the engine's concurrent-query support.
func TestChaosIndexConcurrent(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 47)
	want := chaosReference(t, g)
	obsv := NewTelemetry(nil)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed:  555,
		Delay: 50 * time.Microsecond,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker: {PanicPerMille: 3, DelayPerMille: 10},
			faultinject.SiteQueryPhase: {PanicPerMille: 10, DelayPerMille: 10},
		},
	})
	ix, err := Build(g, &Options{
		Workers:   4,
		Fallback:  FallbackBaseline,
		Inject:    inj,
		Telemetry: obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, queries = 8, 25
	var wg sync.WaitGroup
	complaints := make(chan string, goroutines*queries)
	for gor := 0; gor < goroutines; gor++ {
		wg.Add(1)
		go func(gor int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				src := (gor*queries + i) % len(want)
				dist, err := ix.SSSPContext(context.Background(), src)
				if err != nil {
					if msg := classifyChaosErr(err); msg != "" {
						complaints <- msg
					}
					continue
				}
				for v := range want[src] {
					if !approxEq(dist[v], want[src][v]) {
						complaints <- "wrong distance from concurrent chaos query"
						break
					}
				}
			}
		}(gor)
	}
	wg.Wait()
	close(complaints)
	for msg := range complaints {
		t.Fatal(msg)
	}
	// The injector certainly fired; with fallback enabled no query may have
	// failed at all — so fallback engagements (or a degraded build) must be
	// visible whenever any fault landed as a panic.
	workerPanics, _, _ := inj.Fired(faultinject.SitePramWorker)
	phasePanics, _, _ := inj.Fired(faultinject.SiteQueryPhase)
	if workerPanics+phasePanics > 0 {
		if obsv.reg.CounterValue("sepsp_fallback_engaged_total") == 0 && !ix.Degraded() {
			t.Fatal("panics fired but neither degradation nor fallback engagement recorded")
		}
	}
}
