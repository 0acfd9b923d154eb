package sepsp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sepsp/internal/core"
	"sepsp/internal/faultinject"
)

func TestServerCloseIdempotent(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 21)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("SSSP after Close: err = %v, want ErrServerClosed", err)
	}
	if h := srv.Healthz(); !h.Closed {
		t.Fatal("Healthz().Closed = false after Close")
	}
}

func TestServerQueriesRacingClose(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 23)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mustSSSP(t, ix, 0)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients*64)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				dist, err := srv.SSSP(context.Background(), 0)
				if err != nil {
					errc <- err
					return
				}
				if !approxEq(dist[len(dist)-1], want[len(want)-1]) {
					errc <- errAtf("stale answer during Close race")
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("query racing Close: err = %v, want ErrServerClosed", err)
		}
	}
}

// TestServerQueueTimeout holds the dispatcher back (newServer never starts
// it) so an admitted request must exceed QueueTimeout, then lets the
// dispatcher drain the dead request and checks it is counted exactly once.
func TestServerQueueTimeout(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 25)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(ix, &ServerOptions{QueueTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued past deadline: err = %v, want ErrQueueTimeout", err)
	}
	srv.wg.Add(1)
	go srv.run()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	h := srv.Healthz()
	if h.TimedOut != 1 || h.Cancelled != 0 {
		t.Fatalf("TimedOut = %d, Cancelled = %d; want 1, 0", h.TimedOut, h.Cancelled)
	}
}

// TestServerCancelWhileQueuedCountedOnce mirrors the timeout test with an
// explicit cancellation: the client observes ctx.Err() and the dispatcher —
// not the client — counts the abandonment, exactly once.
func TestServerCancelWhileQueuedCountedOnce(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 25)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(ctx, 0)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled while queued: err = %v, want context.Canceled", err)
	}
	srv.wg.Add(1)
	go srv.run()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	h := srv.Healthz()
	if h.Cancelled != 1 || h.TimedOut != 0 {
		t.Fatalf("Cancelled = %d, TimedOut = %d; want 1, 0", h.Cancelled, h.TimedOut)
	}
	if h.Waves != 0 {
		t.Fatalf("Waves = %d; a dead request must never join a wave", h.Waves)
	}
}

func TestServerWavePanicIsolated(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 27)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mustSSSP(t, ix, 0)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 3,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SiteServerWave: {PanicPerMille: 500},
		},
	})
	srv, err := NewServer(ix, &ServerOptions{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	panics, successes := 0, 0
	for i := 0; i < 32; i++ {
		dist, err := srv.SSSP(context.Background(), 0)
		if err != nil {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("request %d: err = %v, want *PanicError", i, err)
			}
			panics++
			continue
		}
		successes++
		if !approxEq(dist[len(dist)-1], want[len(want)-1]) {
			t.Fatalf("request %d: wrong answer after recovered panic", i)
		}
	}
	if panics == 0 || successes == 0 {
		t.Fatalf("want a mix of outcomes, got %d panics / %d successes", panics, successes)
	}
	if h := srv.Healthz(); h.Panics == 0 {
		t.Fatal("Healthz().Panics = 0 after recovered wave panics")
	}
}

func TestServerHealthzSnapshot(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 29)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, &ServerOptions{MaxBatch: 4, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.SSSP(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Healthz()
	if h.Closed || h.Degraded {
		t.Fatalf("healthy server reported Closed=%v Degraded=%v", h.Closed, h.Degraded)
	}
	if h.Requests != 5 || h.Waves == 0 || h.MaxBatch != 4 || h.MaxInFlight != 32 {
		t.Fatalf("Healthz = %+v; want 5 requests over ≥1 wave with configured limits", h)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRetryBacksOffOnOverload(t *testing.T) {
	var slept []time.Duration
	opt := &RetryOptions{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Seed:        1,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	err := Retry(context.Background(), opt, func() error {
		calls++
		if calls < 3 {
			return ErrServerOverloaded
		}
		return nil
	})
	if err != nil || calls != 3 || len(slept) != 2 {
		t.Fatalf("err=%v calls=%d sleeps=%d; want success on third try after two sleeps", err, calls, len(slept))
	}
	for i, d := range slept {
		if d < 0 || d > 4*time.Millisecond {
			t.Fatalf("sleep %d = %v outside [0, MaxDelay]", i, d)
		}
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	calls := 0
	opt := &RetryOptions{MaxAttempts: 3, Seed: 1, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := Retry(context.Background(), opt, func() error { calls++; return ErrServerOverloaded })
	if !errors.Is(err, ErrServerOverloaded) || calls != 3 {
		t.Fatalf("err=%v calls=%d; want ErrServerOverloaded after exactly 3 attempts", err, calls)
	}
}

func TestRetryDoesNotRetryOtherErrors(t *testing.T) {
	for _, sentinel := range []error{ErrQueueTimeout, ErrServerClosed, context.Canceled} {
		calls := 0
		err := Retry(context.Background(), &RetryOptions{Seed: 1}, func() error { calls++; return sentinel })
		if !errors.Is(err, sentinel) || calls != 1 {
			t.Fatalf("sentinel %v: err=%v calls=%d; want one attempt, error returned as-is", sentinel, err, calls)
		}
	}
}

func TestRetryStopsWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	// A context dead before the first attempt means op is never invoked:
	// the caller already gave up, so even one try is wasted work.
	err := Retry(ctx, &RetryOptions{BaseDelay: time.Hour, Seed: 1}, func() error {
		calls++
		return ErrServerOverloaded
	})
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v calls=%d; want context.Canceled with zero attempts", err, calls)
	}
}

func TestRetryCancelledMidLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	// Cancellation after the first attempt stops the loop at the next
	// iteration even when the injected sleep ignores the context.
	err := Retry(ctx, &RetryOptions{Seed: 1, Sleep: func(context.Context, time.Duration) error { return nil }}, func() error {
		calls++
		cancel()
		return ErrServerOverloaded
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err=%v calls=%d; want context.Canceled after exactly one attempt", err, calls)
	}
}

func TestRetryBackoffCappedAtDeadline(t *testing.T) {
	const budget = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	var slept []time.Duration
	opt := &RetryOptions{
		MaxAttempts: 10,
		BaseDelay:   time.Second, // would dwarf the context budget unclamped
		MaxDelay:    time.Second,
		Seed:        7,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	err := Retry(ctx, opt, func() error { return ErrServerOverloaded })
	if err == nil {
		t.Fatal("retry of a permanently overloaded op succeeded")
	}
	if len(slept) == 0 {
		t.Fatal("no backoff sleeps recorded")
	}
	// Every sleep must fit inside the remaining context budget — with a
	// 1s BaseDelay and a 20ms deadline, an unclamped draw would exceed the
	// whole budget with overwhelming probability across 9 sleeps.
	for i, d := range slept {
		if d > budget {
			t.Fatalf("sleep %d = %v longer than the entire deadline budget %v", i, d, budget)
		}
	}
}

func TestRetryValueThroughServer(t *testing.T) {
	g, _ := gridGraph(t, 4, 4, 31)
	ix, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := mustSSSP(t, ix, 1)
	dist, err := RetryValue(context.Background(), &RetryOptions{Seed: 7}, func() ([]float64, error) {
		return srv.SSSP(context.Background(), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(dist[len(dist)-1], want[len(want)-1]) {
		t.Fatal("RetryValue returned a wrong distance vector")
	}
}

func TestServerOnDegradedIndex(t *testing.T) {
	g, _ := gridGraph(t, 5, 5, 33)
	ref := refGraph(g)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 1,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker: {PanicPerMille: 1000},
		},
	})
	ix, err := Build(g, &Options{Fallback: FallbackBaseline, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Degraded() {
		t.Fatal("expected a degraded index")
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dist, err := srv.SSSP(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyDistances(ref, 0, dist, 1e-9); err != nil {
		t.Fatal(err)
	}
	if h := srv.Healthz(); !h.Degraded {
		t.Fatal("Healthz().Degraded = false for a degraded index")
	}
}
