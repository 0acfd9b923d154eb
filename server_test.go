package sepsp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sepsp/internal/admission"
	"sepsp/internal/faultinject"
	"sepsp/internal/obs"
)

func serverIndex(t testing.TB) (*Index, int) {
	t.Helper()
	g, grid := gridGraph(t, 10, 10, 42)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord)})
	if err != nil {
		t.Fatal(err)
	}
	return ix, grid.G.N()
}

// TestServerCoalescesWave pre-queues requests on a paused server and starts
// the dispatcher: every pending request must be served by ONE multi-source
// wave, with Healthz and the Telemetry wave-size histogram recording it —
// deterministic regardless of scheduler interleaving or GOMAXPROCS.
func TestServerCoalescesWave(t *testing.T) {
	ix, _ := serverIndex(t)
	tel := NewTelemetry(nil)
	srv, err := newServer(ix, &ServerOptions{MaxBatch: 8, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	reqs := make([]*ssspReq, k)
	for i := range reqs {
		reqs[i] = &ssspReq{src: i * 7, ctx: context.Background(), resc: make(chan result, 1)}
		srv.q.Push(reqs[i], admission.Interactive, 1<<30)
	}
	srv.wg.Add(1)
	go srv.run()
	for i, r := range reqs {
		resp := <-r.resc
		if resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
		want := mustSSSP(t, ix, reqs[i].src)
		for v := range want {
			if !approxEq(resp.dist[v], want[v]) {
				t.Fatalf("request %d: dist[%d] = %v want %v", i, v, resp.dist[v], want[v])
			}
		}
	}
	srv.Close()
	if waves := srv.Healthz().Waves; waves != 1 {
		t.Fatalf("waves = %d, want 1 (all %d requests coalesced)", waves, k)
	}
	if ws := tel.waveSize.Snapshot(); ws.Count != 1 || ws.Sum != k {
		t.Fatalf("wave size histogram: count=%d sum=%g, want one wave of %d", ws.Count, ws.Sum, k)
	}
	if got := srv.Healthz().Requests; got != 0 {
		// Requests were injected directly, bypassing admission: counter
		// stays 0. (Guards against double counting inside the dispatcher.)
		t.Fatalf("requests counter = %d, want 0 for injected requests", got)
	}
}

// TestServerMaxBatchSplitsWaves checks a pre-queued backlog larger than
// MaxBatch is split into ceil(k/MaxBatch) waves, none exceeding the cap.
func TestServerMaxBatchSplitsWaves(t *testing.T) {
	ix, _ := serverIndex(t)
	tel := NewTelemetry(nil)
	srv, err := newServer(ix, &ServerOptions{MaxBatch: 4, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	reqs := make([]*ssspReq, k)
	for i := range reqs {
		reqs[i] = &ssspReq{src: i, ctx: context.Background(), resc: make(chan result, 1)}
		srv.q.Push(reqs[i], admission.Interactive, 1<<30)
	}
	srv.wg.Add(1)
	go srv.run()
	for i, r := range reqs {
		if resp := <-r.resc; resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
	}
	srv.Close()
	if waves := srv.Healthz().Waves; waves != 3 {
		t.Fatalf("waves = %d, want 3 (= ceil(10/4))", waves)
	}
	if ws := tel.waveSize.Snapshot(); ws.Sum != k || ws.Sum/float64(ws.Count) > 4 {
		t.Fatalf("wave histogram count=%d sum=%g, want sum=%d mean<=4", ws.Count, ws.Sum, k)
	}
}

// TestServerConcurrentClients runs a live server under concurrent clients
// and verifies every answer; the admitted-request count must equal the
// served total and the Telemetry wave sizes must sum to it.
func TestServerConcurrentClients(t *testing.T) {
	ix, n := serverIndex(t)
	tel := NewTelemetry(nil)
	srv, err := NewServer(ix, &ServerOptions{MaxBatch: 8, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := make([][]float64, n)
	for v := 0; v < n; v++ {
		want[v] = mustSSSP(t, ix, v)
	}
	const clients, perClient = 8, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				src := (c*31 + i*17) % n
				dist, err := srv.SSSP(context.Background(), src)
				if err != nil {
					t.Error(err)
					return
				}
				for v := range dist {
					if !approxEq(dist[v], want[src][v]) {
						t.Errorf("SSSP(%d)[%d] = %v want %v", src, v, dist[v], want[src][v])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	total := int64(clients * perClient)
	if got := srv.Healthz().Requests; got != total {
		t.Fatalf("requests counter = %d, want %d", got, total)
	}
	if sum := tel.waveSize.Snapshot().Sum; int64(sum) != total {
		t.Fatalf("wave sizes sum to %g, want %d", sum, total)
	}
	if waves := srv.Healthz().Waves; waves <= 0 || waves > total {
		t.Fatalf("waves = %d, want in (0, %d]", waves, total)
	}
}

// TestServerAdmissionLimit fills a paused server's queue to MaxInFlight and
// checks the next request is refused with ErrServerOverloaded and counted.
func TestServerAdmissionLimit(t *testing.T) {
	ix, _ := serverIndex(t)
	srv, err := newServer(ix, &ServerOptions{MaxBatch: 2, MaxInFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Dispatcher not running: sends queue up to capacity.
	reqs := make([]*ssspReq, 3)
	for i := range reqs {
		reqs[i] = &ssspReq{src: i, ctx: context.Background(), resc: make(chan result, 1)}
		srv.q.Push(reqs[i], admission.Interactive, 1<<30)
	}
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("overfull queue: err = %v, want ErrServerOverloaded", err)
	}
	if got := srv.Healthz().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Draining the queue restores admission.
	srv.wg.Add(1)
	go srv.run()
	for _, r := range reqs {
		<-r.resc
	}
	if _, err := srv.SSSP(context.Background(), 1); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	srv.Close()
}

// TestServerRefusalKeepsWindow fills a paused server's MaxInFlight window
// and takes several refusals: refusals must not shrink the window, so the
// first arrival after one slot frees is admitted and answered.
func TestServerRefusalKeepsWindow(t *testing.T) {
	ix, _ := serverIndex(t)
	srv, err := newServer(ix, &ServerOptions{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r := &ssspReq{src: i, ctx: context.Background(), resc: make(chan result, 1)}
		if pushed, _ := srv.q.Push(r, admission.Interactive, srv.budget()); pushed != admission.Admitted {
			t.Fatalf("filling the window: push %d = %v, want Admitted", i, pushed)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerOverloaded) {
			t.Fatalf("full window: refusal %d err = %v, want ErrServerOverloaded", i, err)
		}
	}
	if h := srv.Healthz(); h.EffectiveLimit != 4 || h.Rejected != 5 {
		t.Fatalf("after 5 refusals: EffectiveLimit = %d, Rejected = %d; want 4, 5", h.EffectiveLimit, h.Rejected)
	}

	// Free one slot; the next arrival takes it and is served once the
	// dispatcher starts.
	if _, _, ok := srv.q.TryPop(); !ok {
		t.Fatal("queue unexpectedly empty")
	}
	errc := make(chan error, 1)
	go func() {
		_, err := srv.SSSP(context.Background(), 5)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.q.Len() < 4 && srv.Healthz().Rejected == 5 {
		if time.Now().After(deadline) {
			t.Fatal("arrival never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	srv.wg.Add(1)
	go srv.run()
	if err := <-errc; err != nil {
		t.Fatalf("arrival after a slot freed: %v", err)
	}
	srv.Close()
}

// TestServerCancelledWhileQueued checks a request whose context dies before
// its wave is answered with the context error, never served, and counted.
func TestServerCancelledWhileQueued(t *testing.T) {
	ix, _ := serverIndex(t)
	tel := NewTelemetry(nil)
	srv, err := newServer(ix, &ServerOptions{MaxBatch: 4, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := &ssspReq{src: 0, ctx: ctx, resc: make(chan result, 1)}
	live := &ssspReq{src: 1, ctx: context.Background(), resc: make(chan result, 1)}
	srv.q.Push(dead, admission.Interactive, 1<<30)
	srv.q.Push(live, admission.Interactive, 1<<30)
	srv.wg.Add(1)
	go srv.run()
	if resp := <-dead.resc; !errors.Is(resp.err, context.Canceled) {
		t.Fatalf("dead request: err = %v, want context.Canceled", resp.err)
	}
	if resp := <-live.resc; resp.err != nil {
		t.Fatalf("live request: %v", resp.err)
	}
	srv.Close()
	if got := srv.Healthz().Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	if sum := tel.waveSize.Snapshot().Sum; sum != 1 {
		t.Fatalf("wave sizes sum to %g, want 1 (dead request must not join the wave)", sum)
	}
}

// TestServerClosed checks Close semantics: pending requests drain, later
// requests fail with ErrServerClosed, and double Close is fine.
func TestServerClosed(t *testing.T) {
	ix, _ := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SSSP(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.SSSP(context.Background(), 0); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("after Close: err = %v, want ErrServerClosed", err)
	}
	srv.Close() // idempotent
}

// TestServerDist covers both Dist paths: via a batched SSSP wave, and via
// the hub-label oracle once BuildOracle has run.
func TestServerDist(t *testing.T) {
	ix, n := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	u, v := 3, n-4
	want := mustSSSP(t, ix, u)[v]
	got, err := srv.Dist(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, want) {
		t.Fatalf("Dist (wave path) = %v want %v", got, want)
	}
	if _, err := ix.BuildOracle(); err != nil {
		t.Fatal(err)
	}
	got, err = srv.Dist(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, want) {
		t.Fatalf("Dist (oracle path) = %v want %v", got, want)
	}
}

// TestServerBadInput checks vertex validation and option validation.
func TestServerBadInput(t *testing.T) {
	ix, n := serverIndex(t)
	if _, err := NewServer(ix, &ServerOptions{MaxBatch: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative MaxBatch: err = %v, want ErrBadOptions", err)
	}
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.SSSP(context.Background(), n); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("out-of-range src: err = %v, want ErrBadOptions", err)
	}
	if _, err := srv.Dist(context.Background(), 0, -1); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("out-of-range dst: err = %v, want ErrBadOptions", err)
	}
}

// leakCtx is a minimal non-stdlib Context implementation. context.AfterFunc
// cannot see inside it, so it must spawn one watcher goroutine per AfterFunc
// registration — which is exactly what makes watcher leaks observable.
type leakCtx struct{ done chan struct{} }

func (c *leakCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *leakCtx) Done() <-chan struct{}       { return c.done }
func (c *leakCtx) Value(any) any               { return nil }
func (c *leakCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func TestWaveContextDetachReleasesWatchers(t *testing.T) {
	const n = 64
	base := runtime.NumGoroutine()
	reqs := make([]*ssspReq, n)
	for i := range reqs {
		reqs[i] = &ssspReq{ctx: &leakCtx{done: make(chan struct{})}, src: i}
	}
	ctx, detach := waveContext(reqs)
	// The member contexts are opaque, so each AfterFunc registration runs a
	// watcher goroutine. Confirm they actually spawned — otherwise the leak
	// assertion below would pass vacuously.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() < base+n {
		if time.Now().After(deadline) {
			t.Fatalf("watchers never spawned: %d goroutines, want ≥ %d", runtime.NumGoroutine(), base+n)
		}
		time.Sleep(time.Millisecond)
	}
	detach()
	detach() // idempotent: the deferred + eager double call in serveWave
	// With the member contexts never cancelled, only detach can release the
	// watchers. Poll: goroutine exit is asynchronous after AfterFunc stop.
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after detach: %d, want ≤ %d — AfterFunc watchers leaked",
				runtime.NumGoroutine(), base+2)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("wave context not cancelled by detach")
	}
}

func TestWaveContextCancelsAfterAllMembersEnd(t *testing.T) {
	members := make([]*leakCtx, 3)
	reqs := make([]*ssspReq, 3)
	for i := range reqs {
		members[i] = &leakCtx{done: make(chan struct{})}
		reqs[i] = &ssspReq{ctx: members[i], src: i}
	}
	ctx, detach := waveContext(reqs)
	defer detach()
	for i, m := range members {
		select {
		case <-ctx.Done():
			t.Fatalf("wave cancelled with member %d still live", i)
		default:
		}
		close(m.done)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("wave context never cancelled after every member ended")
	}
}

// TestServerQueriesCountedOnce pins the answer stage's accounting: under
// seeded wave panics and delays, client cancels, queue deadlines and a
// thrashing cache over a few hot sources, every SSSP and Dist call with
// valid endpoints is counted exactly once in sepsp_server_queries_total —
// whichever stage ends it, single-flight followers that share a leader's
// panic or give up while waiting and pair-oracle answers included — and
// each Healthz outcome counter equals its series. Calls with a bad
// endpoint end in the validate stage and are never counted.
func TestServerQueriesCountedOnce(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		t.Run(fmt.Sprintf("oracle=%v", oracle), func(t *testing.T) {
			ix, n := serverIndex(t)
			if oracle {
				if _, err := ix.BuildOracle(); err != nil {
					t.Fatal(err)
				}
			}
			inj := faultinject.NewSeeded(faultinject.Config{
				Seed:  7,
				Delay: 300 * time.Microsecond,
				Sites: map[string]faultinject.SiteConfig{
					faultinject.SiteServerWave:   {PanicPerMille: 150, DelayPerMille: 500},
					faultinject.SiteClientCancel: {CancelPerMille: 200},
				},
			})
			tel := NewTelemetry(nil)
			srv, err := NewServer(ix, &ServerOptions{
				MaxBatch:     4,
				MaxInFlight:  6,
				QueueTimeout: 5 * time.Millisecond,
				CacheBytes:   int64(n) * 8 * 2, // room for about two vectors: misses keep coming
				Telemetry:    tel,
				Inject:       inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			const clients, perClient, hot = 8, 60, 5
			var calls atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						ctx, cancel := context.WithCancel(context.Background())
						if inj.Fire(faultinject.SiteClientCancel) == faultinject.Cancel {
							time.AfterFunc(time.Duration(i%4)*100*time.Microsecond, cancel)
						}
						src := (c + i) % hot
						if i%2 == 0 {
							_, _ = srv.SSSP(ctx, src)
						} else {
							_, _ = srv.Dist(ctx, src, n-1-src)
						}
						cancel()
						calls.Add(1)
					}
					if _, err := srv.SSSP(context.Background(), -1); !errors.Is(err, ErrBadOptions) {
						t.Errorf("bad source: err = %v, want ErrBadOptions", err)
					}
					if _, err := srv.Dist(context.Background(), 0, n); !errors.Is(err, ErrBadOptions) {
						t.Errorf("bad destination: err = %v, want ErrBadOptions", err)
					}
				}(c)
			}
			wg.Wait()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			q := promSeries(t, tel, "sepsp_server_queries_total")
			var series [obs.NumOutcomes]int64
			var total int64
			for out := range series {
				series[out] = q[`outcome="`+obs.Outcome(out).String()+`"`]
				total += series[out]
			}
			if total != calls.Load() {
				t.Fatalf("queries_total = %d over outcomes %v, want %d (one per call)", total, series, calls.Load())
			}
			h := srv.Healthz()
			for _, c := range []struct {
				name         string
				health, want int64
			}{
				{"rejected", h.Rejected, series[obs.OutcomeShed]},
				{"cancelled", h.Cancelled, series[obs.OutcomeCancelled]},
				{"timed_out", h.TimedOut, series[obs.OutcomeTimeout]},
				{"panics", h.Panics, series[obs.OutcomePanic]},
				{"brownouts", h.Brownouts, series[obs.OutcomeBrownout]},
			} {
				if c.health != c.want {
					t.Errorf("Healthz %s = %d, queries_total series = %d", c.name, c.health, c.want)
				}
			}
			t.Logf("outcomes %v, cache %+v", series, srv.cache.Stats())
			if series[obs.OutcomePanic] == 0 || series[obs.OutcomeCancelled]+series[obs.OutcomeTimeout] == 0 {
				t.Fatalf("outcomes %v: seeded faults produced no panic or no cancellation; the test is vacuous", series)
			}
		})
	}
}
