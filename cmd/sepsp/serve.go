package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	sepsp "sepsp"
	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
)

// serveConfig carries the serve subcommand's load-test parameters.
type serveConfig struct {
	clients   int           // concurrent client goroutines
	requests  int           // total SSSP requests issued across all clients
	maxBatch  int           // Server wave cap (0: default)
	inFlight  int           // Server admission cap (0: default)
	seed      int64         // source-selection seed (deterministic load)
	timeout   time.Duration // Server queue deadline (0: none)
	chaos     int           // fault-injection panic/delay permille (0: off)
	chaosSeed int64         // fault-injection seed
	listen    string        // live telemetry HTTP address ("" = off)
	linger    time.Duration // keep the endpoint up this long after the load
	logLevel  string        // slog level on stderr (debug|info|warn|error|off)

	reweight      string        // graph file hot-swapped in on SIGHUP ("" = off)
	reweightEvery time.Duration // additionally reload on this period (reweight drill)

	overload    bool   // run the overload-control drill instead of the plain load
	priorityMix string // I:B:G arrival weights ("" = all interactive)

	cacheMB    int // epoch-aware result cache budget in MiB (0 = off)
	hotSources int // draw sources from this many hot vertices (cache drill; 0 = uniform)
}

// readGraph loads a graph file into the builder the public API consumes,
// returning the vertex count alongside.
func readGraph(path string) (*sepsp.Graph, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	dg, err := graph.Read(f)
	if err != nil {
		return nil, 0, err
	}
	g := sepsp.NewGraph(dg.N())
	dg.Edges(func(from, to int, w float64) bool {
		g.AddEdge(from, to, w)
		return true
	})
	return g, dg.N(), nil
}

// reweightLoop hot-swaps the serving index from cfg.reweight on every
// SIGHUP — the operational zero-downtime reload path — and, with
// cfg.reweightEvery set, on a timer as well (the reweight drill: repeated
// swaps under live load). A failed reload is logged and counted by the
// Manager; traffic stays on the old epoch. The caller registers hup for
// SIGHUP before starting the loop (so no early signal hits the default
// handler); the loop exits when stop closes or ctx ends.
func reweightLoop(ctx context.Context, srv *sepsp.Server, cfg serveConfig, n int, logger *slog.Logger, hup <-chan os.Signal, stop <-chan struct{}) {
	var tick <-chan time.Time
	if cfg.reweightEvery > 0 {
		t := time.NewTicker(cfg.reweightEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-hup:
		case <-tick:
		}
		g, rn, err := readGraph(cfg.reweight)
		if err == nil && rn != n {
			err = fmt.Errorf("reweight %s: %d vertices, want %d", cfg.reweight, rn, n)
		}
		var epoch uint64
		if err == nil {
			epoch, err = srv.Reweight(ctx, g)
		}
		switch {
		case err == nil:
			if logger != nil {
				logger.Info("reweight swapped", "file", cfg.reweight, "epoch", epoch)
			}
		case errors.Is(err, sepsp.ErrRebuildInFlight):
			// A drill tick landed mid-rebuild; the running rebuild wins.
		case errors.Is(err, context.Canceled):
			return
		default:
			if logger != nil {
				logger.Error("reweight failed; old epoch keeps serving",
					"file", cfg.reweight, "err", err)
			}
		}
	}
}

// chaosInjector builds the deterministic fault plan for `serve -chaos R`:
// panics at rate R‰ and delays at rate 2R‰ on every instrumented boundary.
func chaosInjector(cfg serveConfig) *faultinject.Seeded {
	rate := uint32(cfg.chaos)
	site := faultinject.SiteConfig{PanicPerMille: rate, DelayPerMille: 2 * rate}
	return faultinject.NewSeeded(faultinject.Config{
		Seed:  cfg.chaosSeed,
		Delay: 200 * time.Microsecond,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SitePramWorker: site,
			faultinject.SiteQueryPhase: site,
			faultinject.SiteServerWave: site,
		},
	})
}

// buildLogger returns the serve path's structured logger: log/slog text
// records on stderr at the configured level, or nil (logging off at zero
// cost) for "off".
func buildLogger(w io.Writer, level string) (*slog.Logger, error) {
	if level == "" || level == "off" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: want debug|info|warn|error|off", level)
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lvl})), nil
}

// runServe drives a synthetic concurrent load through a sepsp.Server on the
// built index and prints a throughput and batching summary — the load-test
// harness for the concurrent serving layer. Rejected requests
// (ErrServerOverloaded) are retried with jittered backoff (sepsp.Retry) so
// every request is eventually decided; the rejection count still shows in
// the summary. With chaos injection enabled (cfg.chaos > 0) requests may
// additionally end in typed fault errors, which are tolerated and counted —
// anything untyped fails the run.
//
// With cfg.listen set, the live telemetry endpoint (sepsp.Telemetry
// /metrics, /healthz, /flightrecorder, /debug/pprof) is mounted for the
// duration of the load plus cfg.linger. Cancelling ctx (SIGINT/SIGTERM in
// main) stops the load gracefully: clients stop issuing, in-flight waves
// drain through Server.Close, and runServe returns normally so the
// caller's metric exports still happen. tel is the Telemetry the index was
// built with, if any; the server then reports into it too, so one
// exposition holds the index's and the server's families.
func runServe(ctx context.Context, w io.Writer, ix *sepsp.Index, n int, cfg serveConfig, inj *faultinject.Seeded, tel *sepsp.Telemetry, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sepsp:", err)
		return 1
	}
	if cfg.clients <= 0 {
		cfg.clients = 8
	}
	if cfg.requests <= 0 {
		cfg.requests = 256
	}
	logger, err := buildLogger(stderr, cfg.logLevel)
	if err != nil {
		return fail(err)
	}
	// Telemetry is always attached: the run summary reads the wave-size
	// histogram and the fallback counts from it; -listen only decides
	// whether it is also served.
	if tel == nil {
		tel = sepsp.NewTelemetry(nil)
	}
	sopt := &sepsp.ServerOptions{
		MaxBatch:     cfg.maxBatch,
		MaxInFlight:  cfg.inFlight,
		QueueTimeout: cfg.timeout,
		CacheBytes:   int64(cfg.cacheMB) << 20,
		Telemetry:    tel,
		Logger:       logger,
	}
	if inj != nil {
		// Assigning a nil *Seeded would make the interface non-nil.
		sopt.Inject = inj
	}
	srv, err := sepsp.NewServer(ix, sopt)
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
		go func() { _ = httpSrv.Serve(ln) }() // ErrServerClosed after Shutdown
		// The discovery line external drills parse; keep its shape stable.
		fmt.Fprintf(stderr, "telemetry: listening on http://%s\n", ln.Addr())
		if logger != nil {
			logger.Info("telemetry endpoint up", "addr", ln.Addr().String())
		}
	}

	var rwStop chan struct{}
	var rwWG sync.WaitGroup
	if cfg.reweight != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		rwStop = make(chan struct{})
		rwWG.Add(1)
		go func() {
			defer rwWG.Done()
			reweightLoop(ctx, srv, cfg, n, logger, hup, rwStop)
		}()
	}

	// Priority mix for the synthetic load; "" is all-interactive, which is
	// also the server's default for unlabelled requests.
	mix, err := parsePriorityMix(cfg.priorityMix)
	if err != nil {
		return fail(err)
	}

	// The source universe: uniform over the graph by default, or — the cache
	// drill — uniform over a small hot set so repeats (and thus cache hits)
	// dominate.
	srcSpan := n
	if cfg.hotSources > 0 && cfg.hotSources < n {
		srcSpan = cfg.hotSources
	}

	var served, faulted atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		quota := cfg.requests / cfg.clients
		if c < cfg.requests%cfg.clients {
			quota++
		}
		wg.Add(1)
		go func(c, quota int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
			retry := &sepsp.RetryOptions{
				Seed:      cfg.seed + int64(c) + 1,
				BaseDelay: 50 * time.Microsecond,
				Telemetry: tel,
			}
			for i := 0; i < quota && ctx.Err() == nil; i++ {
				src := rng.Intn(srcSpan)
				qctx := sepsp.WithPriority(ctx, mix.draw(rng))
				dist, err := sepsp.RetryValue(qctx, retry, func() ([]float64, error) {
					return srv.SSSP(qctx, src)
				})
				switch {
				case err == nil && len(dist) == n:
					served.Add(1)
				case err == nil:
					firstErr.CompareAndSwap(nil, fmt.Errorf("serve: got %d distances, want %d", len(dist), n))
				case isTypedFault(err):
					faulted.Add(1)
				default:
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(c, quota)
	}
	wg.Wait()
	elapsed := time.Since(start)
	interrupted := ctx.Err() != nil
	if interrupted && logger != nil {
		logger.Warn("load interrupted by signal; draining in-flight waves")
	}
	health := srv.Healthz()

	// Keep the telemetry endpoint scrapeable for a postmortem window after
	// the load (the flight recorder and histograms hold the run's tail),
	// then drain the server and stop serving HTTP.
	if httpSrv != nil && cfg.linger > 0 && !interrupted {
		if logger != nil {
			logger.Info("lingering", "addr", cfg.listen, "for", cfg.linger)
		}
		select {
		case <-time.After(cfg.linger):
		case <-ctx.Done():
		}
	}
	// The reload path stays live through the linger window (the endpoint is
	// still up and an operator may SIGHUP); stop it before draining.
	if rwStop != nil {
		close(rwStop)
		rwWG.Wait()
	}
	srv.Close()
	if httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(sctx)
		cancel()
	}
	if logger != nil {
		logger.Info("serve finished", "health", health.String(), "interrupted", interrupted)
	}

	if err, _ := firstErr.Load().(error); err != nil {
		return fail(err)
	}

	m := scrape(tel)
	meanWave, p50, p99 := 0.0, m[`sepsp_server_wave_size_quantile{q="0.5"}`], m[`sepsp_server_wave_size_quantile{q="0.99"}`]
	if count := m["sepsp_server_wave_size_count"]; count > 0 {
		meanWave = m["sepsp_server_wave_size_sum"] / count
	}
	fmt.Fprintf(w, "serve: %d requests, %d clients\n", cfg.requests, cfg.clients)
	fmt.Fprintf(w, "served=%d faulted=%d rejected=%d cancelled=%d timedout=%d\n",
		served.Load(), faulted.Load(), health.Rejected, health.Cancelled, health.TimedOut)
	fmt.Fprintf(w, "waves=%d meanWave=%.2f p50Wave=%.2f p99Wave=%.2f\n", srv.Healthz().Waves, meanWave, p50, p99)
	fmt.Fprintf(w, "elapsed=%s throughput=%.0f req/s\n",
		elapsed.Round(time.Millisecond), float64(served.Load())/elapsed.Seconds())
	if interrupted {
		fmt.Fprintf(w, "interrupted=true\n")
	}
	if cfg.reweight != "" {
		mgr := srv.Manager()
		fmt.Fprintf(w, "reweight: swaps=%d failures=%d epoch=%d\n",
			mgr.Swaps(), mgr.RebuildFailures(), mgr.Epoch())
	}
	if cfg.cacheMB > 0 {
		decided := health.CacheHits + health.CacheShared + health.CacheMisses
		hitRate := 0.0
		if decided > 0 {
			hitRate = 100 * float64(health.CacheHits+health.CacheShared) / float64(decided)
		}
		fmt.Fprintf(w, "cache: hits=%d misses=%d shared=%d evictions=%d bytes=%d hitRate=%.1f%%\n",
			health.CacheHits, health.CacheMisses, health.CacheShared,
			health.CacheEvictions, health.CacheBytes, hitRate)
	}
	if cfg.chaos > 0 {
		wp, wd, _ := inj.Fired(faultinject.SitePramWorker)
		qp, qd, _ := inj.Fired(faultinject.SiteQueryPhase)
		sp, sd, _ := inj.Fired(faultinject.SiteServerWave)
		fmt.Fprintf(w, "chaos: injected panics=%d delays=%d recoveredPanics=%d degraded=%v\n",
			wp+qp+sp, wd+qd+sd, health.Panics, health.Degraded)
		fmt.Fprintf(w, "chaos: fallbackEngaged=%.0f fallbackQueries=%.0f\n",
			m["sepsp_fallback_engaged_total"], m["sepsp_fallback_queries_total"])
	}
	return 0
}

// scrape reads tel's Prometheus exposition into a series → value map,
// keyed by the sample name with its labels as exposed (the histogram
// quantile gauges are log2-bucket estimates).
func scrape(tel *sepsp.Telemetry) map[string]float64 {
	var b strings.Builder
	_ = tel.WriteMetrics(&b) // a strings.Builder never fails a write
	m := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m
}

// isTypedFault reports whether err is one of the serving stack's documented
// failure-mode errors — acceptable outcomes under chaos injection.
func isTypedFault(err error) bool {
	var pe *sepsp.PanicError
	return errors.As(err, &pe) ||
		errors.Is(err, sepsp.ErrServerOverloaded) ||
		errors.Is(err, sepsp.ErrQueueTimeout) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
