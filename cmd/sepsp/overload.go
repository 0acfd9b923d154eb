package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sepsp "sepsp"
	"sepsp/internal/faultinject"
)

// priorityMix is the parsed -priority-mix: relative arrival weights for
// interactive, batch, and background traffic.
type priorityMix struct {
	weights [3]int
	total   int
}

// parsePriorityMix parses "I:B:G" integer percentages (any positive total
// works — they are weights, not strict percents). "" means all-interactive.
func parsePriorityMix(s string) (priorityMix, error) {
	if s == "" {
		return priorityMix{weights: [3]int{1, 0, 0}, total: 1}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return priorityMix{}, fmt.Errorf("-priority-mix %q: want I:B:G (e.g. 50:40:10)", s)
	}
	var m priorityMix
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return priorityMix{}, fmt.Errorf("-priority-mix %q: bad weight %q", s, p)
		}
		m.weights[i] = v
		m.total += v
	}
	if m.total == 0 {
		return priorityMix{}, fmt.Errorf("-priority-mix %q: all weights zero", s)
	}
	return m, nil
}

// draw picks a priority according to the mix.
func (m priorityMix) draw(rng *rand.Rand) sepsp.Priority {
	r := rng.Intn(m.total)
	for i, w := range m.weights {
		if r < w {
			return sepsp.Priority(i)
		}
		r -= w
	}
	return sepsp.PriorityBackground
}

// runOverloadDrill exercises the overload-control stack end to end on the
// real serving path, in two phases:
//
//  1. overload — every wave is stalled by an injected delay while ~4× the
//     MaxInFlight window in mixed-priority clients hammers the server:
//     shedding engages brownout, and batch/background queries are answered
//     exactly from the fallback engine while interactive queries never are;
//  2. breaker — injected rebuild panics open the rebuild circuit breaker
//     (further reweights are refused with ErrBreakerOpen without running),
//     then injection stops, the cooldown elapses, and one half-open probe
//     rebuild closes it again.
//
// The summary lines are stable shapes for external tooling; the drill exits
// non-zero if any phase misses its invariant. With cfg.listen the live
// telemetry endpoint is mounted throughout (plus cfg.linger), so the drill
// can be scraped mid-flight.
func runOverloadDrill(ctx context.Context, w io.Writer, ix *sepsp.Index, g *sepsp.Graph, n int, cfg serveConfig, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sepsp:", err)
		return 1
	}
	mixStr := cfg.priorityMix
	if mixStr == "" {
		mixStr = "50:40:10"
	}
	mix, err := parsePriorityMix(mixStr)
	if err != nil {
		return fail(err)
	}
	logger, err := buildLogger(stderr, cfg.logLevel)
	if err != nil {
		return fail(err)
	}
	inFlight := cfg.inFlight
	if inFlight <= 0 {
		inFlight = 8
	}
	maxBatch := cfg.maxBatch
	if maxBatch <= 0 {
		maxBatch = 4
	}
	requests := cfg.requests
	if requests <= 0 {
		requests = 256
	}
	const (
		waveStall       = 3 * time.Millisecond
		breakerCooldown = 150 * time.Millisecond
		breakerFailures = 3
	)

	// One seeded injector holds the whole fault plan; the Toggle moves the
	// drill between phases without touching the server's injector reference.
	seeded := faultinject.NewSeeded(faultinject.Config{
		Seed: cfg.chaosSeed,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SiteServerWave:     {DelayPerMille: 1000, Delay: waveStall},
			faultinject.SiteManagerRebuild: {PanicPerMille: 1000},
		},
	})
	// The wave stall holds every wave for a fixed time, so 4× the window in
	// arrivals overflows it whatever the machine's speed.
	tog := faultinject.NewToggle(seeded)
	tog.Disable(faultinject.SiteManagerRebuild)

	var tel *sepsp.Telemetry
	if cfg.listen != "" {
		tel = sepsp.NewTelemetry(nil)
	}
	srv, err := sepsp.NewServer(ix, &sepsp.ServerOptions{
		MaxBatch:     maxBatch,
		MaxInFlight:  inFlight,
		QueueTimeout: cfg.timeout,
		Telemetry:    tel,
		Logger:       logger,
		Inject:       tog,
		Admission: &sepsp.AdmissionOptions{
			// Engage brownout quickly: the drill's point is to observe it.
			BrownoutThreshold: 0.02,
			RebuildBreaker: sepsp.BreakerOptions{
				FailureThreshold: breakerFailures,
				Cooldown:         breakerCooldown,
			},
		},
	})
	if err != nil {
		return fail(err)
	}

	var httpSrv *http.Server
	if cfg.listen != "" {
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			return fail(err)
		}
		httpSrv = &http.Server{Handler: tel.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		// Same discovery line shape as runServe; external drills parse it.
		fmt.Fprintf(stderr, "telemetry: listening on http://%s\n", ln.Addr())
	}

	// Phase 1: overload. Throw ~4× the window in concurrent mixed-priority
	// clients at the server.
	clients := 4 * inFlight
	var okCls, shedCls [3]atomic.Int64
	var cancelled atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		quota := requests / clients
		if c < requests%clients {
			quota++
		}
		wg.Add(1)
		go func(c, quota int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 17*int64(c+1)))
			for i := 0; i < quota && ctx.Err() == nil; i++ {
				p := mix.draw(rng)
				dist, err := srv.SSSP(sepsp.WithPriority(ctx, p), rng.Intn(n))
				switch {
				case err == nil && len(dist) == n:
					okCls[p].Add(1)
				case err == nil:
					firstErr.CompareAndSwap(nil, fmt.Errorf("overload: got %d distances, want %d", len(dist), n))
				case errors.Is(err, sepsp.ErrServerOverloaded):
					// Shed (including a failed brownout attempt); the load
					// deliberately does not retry — refusals are the point.
					shedCls[p].Add(1)
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(c, quota)
	}
	wg.Wait()
	tog.Disable(faultinject.SiteServerWave)
	health := srv.Healthz()

	// Phase 2: breaker. Injected panics fail rebuilds until the breaker
	// opens, a further reweight is refused without running, then recovery:
	// injection off, cooldown, one probe rebuild closes the breaker.
	tog.Enable(faultinject.SiteManagerRebuild)
	rebuildFailed := 0
	for i := 0; i < breakerFailures && ctx.Err() == nil; i++ {
		if _, err := srv.Reweight(ctx, g); err != nil && !errors.Is(err, sepsp.ErrBreakerOpen) {
			rebuildFailed++
		}
	}
	opened := srv.Manager().BreakerState() == sepsp.BreakerOpen
	_, err = srv.Reweight(ctx, g)
	blocked := errors.Is(err, sepsp.ErrBreakerOpen)
	tog.Disable(faultinject.SiteManagerRebuild)
	if ctx.Err() == nil {
		time.Sleep(breakerCooldown + 50*time.Millisecond)
	}
	epoch, probeErr := srv.Reweight(ctx, g)
	recovered := probeErr == nil && srv.Manager().BreakerState() == sepsp.BreakerClosed

	// Keep the endpoint scrapeable for a postmortem window, then drain.
	interrupted := ctx.Err() != nil
	if httpSrv != nil && cfg.linger > 0 && !interrupted {
		select {
		case <-time.After(cfg.linger):
		case <-ctx.Done():
		}
	}
	srv.Close()
	if httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(sctx)
		cancel()
	}

	if err, _ := firstErr.Load().(error); err != nil {
		return fail(err)
	}

	var okTotal, shedTotal int64
	for i := range okCls {
		okTotal += okCls[i].Load()
		shedTotal += shedCls[i].Load()
	}
	fmt.Fprintf(w, "overload: %d requests, %d clients, inflight=%d mix=%s\n",
		requests, clients, inFlight, mixStr)
	fmt.Fprintf(w, "window: inflight=%d\n", health.EffectiveLimit)
	fmt.Fprintf(w, "outcomes: ok=%d shed=%d cancelled=%d evicted=%d brownouts=%d\n",
		okTotal, shedTotal, cancelled.Load(), health.Evicted, health.Brownouts)
	for p := sepsp.PriorityInteractive; p <= sepsp.PriorityBackground; p++ {
		fmt.Fprintf(w, "class %s: ok=%d shed=%d\n", p, okCls[p].Load(), shedCls[p].Load())
	}
	fmt.Fprintf(w, "breaker: failures=%d opened=%v blocked=%v recovered=%v epoch=%d\n",
		rebuildFailed, opened, blocked, recovered, epoch)
	if interrupted {
		fmt.Fprintf(w, "interrupted=true\n")
		return 0 // a signalled drill is a clean exit, not a failed invariant
	}
	if health.Brownouts == 0 {
		return fail(errors.New("overload: brownout never engaged under sustained shedding"))
	}
	if rebuildFailed != breakerFailures || !opened || !blocked || !recovered {
		return fail(fmt.Errorf("overload: breaker drill failed (failures=%d opened=%v blocked=%v recovered=%v)",
			rebuildFailed, opened, blocked, recovered))
	}
	return 0
}
