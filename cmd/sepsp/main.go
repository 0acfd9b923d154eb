// Command sepsp preprocesses a digraph with the separator shortest-path
// engine and answers queries.
//
// Usage:
//
//	sepsp -graph g.txt [-coords g.coords] [-alg 41|43] [-workers P]
//	      [-trace out.json] [-metrics out.prom] [-pprof dir/] <command>
//
// Commands:
//
//	sssp -src S              print distances from S (one per line)
//	path -src S -dst T       print a minimum-weight S→T path
//	reach -src S             print reachable vertex ids
//	apsp -srcs a,b,c         distances from several sources
//	pairs -pairs u:v,u:v     exact pair distances via the hub-label oracle
//	tree                     render the separator decomposition tree
//	stats                    preprocessing statistics and cost breakdowns
//	serve [-clients C] [-requests R] [-maxbatch B] [-inflight F] [-seed S]
//	      [-timeout D] [-chaos P] [-chaosseed S] [-listen ADDR] [-linger D]
//	      [-log-level L] [-reweight FILE] [-reweight-every D]
//	      [-priority-mix I:B:G] [-overload] [-cache-mb MB] [-hot-sources K]
//	                         drive a synthetic concurrent load through the
//	                         batching Server and print throughput and wave
//	                         coalescing statistics (load test). -chaos P
//	                         deterministically injects panics (P‰) and delays
//	                         (2P‰) at every worker, phase, and wave boundary;
//	                         the index is built with the baseline fallback so
//	                         every request still ends in a correct answer or
//	                         a typed error (chaos drill). -listen ADDR mounts
//	                         the live telemetry endpoint (/metrics Prometheus
//	                         exposition, /healthz, /flightrecorder,
//	                         /debug/pprof) for the duration of the load and,
//	                         with -linger D, for D afterwards. SIGINT/SIGTERM
//	                         stop the load gracefully: in-flight waves drain
//	                         and the -metrics/-trace exports are still
//	                         written. -reweight FILE hot-swaps the serving
//	                         index from FILE (same undirected skeleton, new
//	                         weights) on SIGHUP with zero downtime — the
//	                         operational reload path — and -reweight-every D
//	                         additionally reloads every D (the reweight
//	                         drill: repeated epoch swaps under live load,
//	                         visible as the advancing "epoch" in /healthz).
//	                         -priority-mix I:B:G spreads the load across the
//	                         interactive/batch/background priority classes
//	                         by weight. -overload runs the overload-control
//	                         drill instead of the plain load: under 4x the
//	                         -inflight window with injected wave latency,
//	                         shed batch queries must be browned out exactly
//	                         (never interactive ones), and the rebuild
//	                         circuit breaker must open under injected
//	                         failures and recover through a half-open probe;
//	                         the drill exits non-zero if any phase misses
//	                         its invariant. -cache-mb MB enables the
//	                         epoch-aware result cache with an MB-MiB budget
//	                         (cached sources answer without entering
//	                         admission; the summary gains a cache: line with
//	                         hit/miss/shared counts and the hit rate), and
//	                         -hot-sources K draws the load from K hot
//	                         vertices instead of the whole graph so repeats
//	                         dominate (the cache drill).
//
// Observability flags:
//
//	-trace out.json          Chrome trace_event spans (chrome://tracing,
//	                         Perfetto) — one span per preprocessing tree
//	                         level and per query Bellman-Ford phase
//	-metrics out.prom        the Telemetry's Prometheus text, the bytes
//	                         /metrics serves: per-level preprocessing and
//	                         per-phase-kind query counters, worker gauges,
//	                         and under serve the serving families
//	-pprof dir/              write dir/cpu.pprof and dir/heap.pprof, with
//	                         phase= labels on instrumented sections
//	-log-level L             serve: structured log/slog level on stderr
//	                         (debug|info|warn|error|off; default info —
//	                         waves log at debug, failures at warn/error)
//
// Any of -trace, -metrics and -pprof builds the index with a
// sepsp.Telemetry, with tracing on for -trace and -pprof; without them the
// index is uninstrumented. Under serve the server reports into the same
// Telemetry.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	sepsp "sepsp"
	"sepsp/internal/faultinject"
	"sepsp/internal/graph"
	"sepsp/internal/obs"
)

func main() {
	// Without a SIGPIPE handler the Go runtime kills the process on a
	// write to a closed stdout (e.g. `sssp | head`), losing the -trace /
	// -metrics / -pprof exports. Catching it turns the broken pipe into an
	// ordinary write error that run handles after exporting.
	signal.Notify(make(chan os.Signal, 1), syscall.SIGPIPE)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sepsp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath   = fs.String("graph", "", "input graph file (required)")
		coordsPath  = fs.String("coords", "", "optional integer coordinates file enabling hyperplane separators")
		alg         = fs.Int("alg", 41, "E+ construction: 41 (leaves-up) or 43 (simultaneous)")
		workers     = fs.Int("workers", 1, "goroutine workers (PRAM processors); -1 = GOMAXPROCS")
		src         = fs.Int("src", 0, "source vertex")
		dst         = fs.Int("dst", 0, "destination vertex (path)")
		srcsFlag    = fs.String("srcs", "", "comma-separated sources (apsp)")
		pairsFlag   = fs.String("pairs", "", "comma-separated u:v pairs (pairs)")
		tracePath   = fs.String("trace", "", "write Chrome trace_event JSON here")
		metricsPath = fs.String("metrics", "", "write the metrics in Prometheus text here")
		pprofDir    = fs.String("pprof", "", "write cpu.pprof and heap.pprof into this directory")
		clients     = fs.Int("clients", 8, "serve: concurrent client goroutines")
		requests    = fs.Int("requests", 256, "serve: total SSSP requests across all clients")
		maxBatch    = fs.Int("maxbatch", 0, "serve: max sources per coalesced wave (0 = default)")
		inFlight    = fs.Int("inflight", 0, "serve: max admitted requests (0 = default)")
		seed        = fs.Int64("seed", 1, "serve: source-selection seed")
		timeout     = fs.Duration("timeout", 0, "serve: queue deadline per request (0 = none)")
		chaos       = fs.Int("chaos", 0, "serve: fault-injection panic permille (0 = off)")
		chaosSeed   = fs.Int64("chaosseed", 1, "serve: fault-injection seed")
		listen      = fs.String("listen", "", "serve: mount the live telemetry HTTP endpoint on this address (e.g. :9090, 127.0.0.1:0)")
		linger      = fs.Duration("linger", 0, "serve: keep the -listen endpoint up this long after the load finishes")
		logLevel    = fs.String("log-level", "info", "serve: structured log level on stderr (debug|info|warn|error|off)")
		reweight    = fs.String("reweight", "", "serve: hot-swap the serving index from this graph file on SIGHUP (zero-downtime reload)")
		reweightDur = fs.Duration("reweight-every", 0, "serve: with -reweight, also reload on this period (reweight drill; 0 = SIGHUP only)")
		overload    = fs.Bool("overload", false, "serve: run the overload-control drill (priority shedding and brownout under 4x the -inflight window, rebuild circuit breaker)")
		prioMix     = fs.String("priority-mix", "", "serve: interactive:batch:background arrival weights, e.g. 50:40:10 (default all-interactive; -overload defaults to 50:40:10)")
		cacheMB     = fs.Int("cache-mb", 0, "serve: epoch-aware result cache budget in MiB (0 = cache off)")
		hotSources  = fs.Int("hot-sources", 0, "serve: draw sources from this many hot vertices instead of the whole graph (cache drill; 0 = uniform)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	// Flags may appear before or after the command word: both
	// "sepsp -graph g.txt -src 0 sssp" and "sepsp -graph g.txt sssp -src 0"
	// parse; a second Parse consumes the trailing flags.
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return 2
	}
	if *graphPath == "" || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "sepsp:", err)
		return 1
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return fail(err)
	}
	dg, err := graph.Read(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	g := sepsp.NewGraph(dg.N())
	dg.Edges(func(from, to int, w float64) bool {
		g.AddEdge(from, to, w)
		return true
	})
	opt := &sepsp.Options{Workers: *workers}
	if *alg == 43 {
		opt.Algorithm = sepsp.Simultaneous
	}
	cfg := serveConfig{
		clients:   *clients,
		requests:  *requests,
		maxBatch:  *maxBatch,
		inFlight:  *inFlight,
		seed:      *seed,
		timeout:   *timeout,
		chaos:     *chaos,
		chaosSeed: *chaosSeed,
		listen:    *listen,
		linger:    *linger,
		logLevel:  *logLevel,

		reweight:      *reweight,
		reweightEvery: *reweightDur,
		overload:      *overload,
		priorityMix:   *prioMix,
		cacheMB:       *cacheMB,
		hotSources:    *hotSources,
	}
	if cfg.reweightEvery > 0 && cfg.reweight == "" {
		return fail(fmt.Errorf("-reweight-every needs -reweight FILE"))
	}
	if cfg.cacheMB < 0 {
		return fail(fmt.Errorf("-cache-mb %d: budget must be >= 0", cfg.cacheMB))
	}
	if cfg.hotSources < 0 {
		return fail(fmt.Errorf("-hot-sources %d: count must be >= 0", cfg.hotSources))
	}
	if cfg.overload && (cfg.chaos > 0 || cfg.reweight != "") {
		return fail(fmt.Errorf("-overload is its own drill; it composes with neither -chaos nor -reweight"))
	}
	if cfg.priorityMix != "" {
		if _, err := parsePriorityMix(cfg.priorityMix); err != nil {
			return fail(err)
		}
	}
	if cmd == "serve" && cfg.overload {
		// Brownout answers shed batch/background queries exactly from the
		// baseline fallback engine; the drill needs that engine built in.
		opt.Fallback = sepsp.FallbackBaseline
	}
	var inj *faultinject.Seeded
	if cmd == "serve" && cfg.chaos > 0 {
		if cfg.chaos > 1000 {
			return fail(fmt.Errorf("-chaos %d: rate is a permille, want 0..1000", cfg.chaos))
		}
		// A chaos drill injects faults into the build too, so the index is
		// built with the exact-baseline fallback: a faulted build degrades
		// instead of failing and the drill still measures serving behaviour.
		// A reweight drill is the exception: hot-swapping needs the
		// separator decomposition (a degraded index has nothing to rebuild
		// from), so chaos then targets the serving path only and the
		// preprocessing runs clean.
		inj = chaosInjector(cfg)
		if cfg.reweight == "" {
			opt.Inject = inj
			opt.Fallback = sepsp.FallbackBaseline
		}
	}
	if *coordsPath != "" {
		coords, err := readCoords(*coordsPath, dg.N())
		if err != nil {
			return fail(err)
		}
		opt.Decomposition = sepsp.GridDecomposition(coords)
	}

	// Only the export flags instrument the build; spans and pprof labels
	// come with -trace and -pprof.
	var tel *sepsp.Telemetry
	if *tracePath != "" || *metricsPath != "" || *pprofDir != "" {
		tel = sepsp.NewTelemetry(&sepsp.TelemetryOptions{Trace: *tracePath != "" || *pprofDir != ""})
		opt.Telemetry = tel
	}
	var prof *obs.Profiler
	if *pprofDir != "" {
		if prof, err = obs.StartProfiles(*pprofDir); err != nil {
			return fail(err)
		}
	}

	ix, err := sepsp.Build(g, opt)
	if err != nil {
		return fail(err)
	}
	w := bufio.NewWriter(stdout)
	var code int
	if cmd == "serve" {
		// SIGINT/SIGTERM end the load gracefully instead of killing the
		// process: clients stop issuing, queued requests are answered with
		// cancellation, in-flight waves drain through Server.Close, and —
		// crucially — control returns here so the -metrics/-trace exports
		// below are still written (a Ctrl-C during a load test must not
		// lose the run's metrics). A second signal falls back to the
		// default handler and kills the process.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		if cfg.overload {
			code = runOverloadDrill(ctx, w, ix, g, dg.N(), cfg, stderr)
		} else {
			code = runServe(ctx, w, ix, dg.N(), cfg, inj, tel, stderr)
		}
		stop()
	} else {
		code = runCommand(w, ix, dg, cmd, *src, *dst, *srcsFlag, *pairsFlag, stderr)
	}
	// A broken stdout (e.g. `sssp | head` closing the pipe) must not lose
	// the observability exports: stop profiles and write the requested
	// files regardless, then report the first failure.
	if err := w.Flush(); err != nil && code == 0 {
		code = fail(err)
	}
	if prof != nil {
		if err := prof.Stop(); err != nil && code == 0 {
			code = fail(err)
		}
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, tel.WriteTrace); err != nil && code == 0 {
			code = fail(err)
		}
	}
	if *metricsPath != "" {
		if err := writeFile(*metricsPath, tel.WriteMetrics); err != nil && code == 0 {
			code = fail(err)
		}
	}
	return code
}

func runCommand(w *bufio.Writer, ix *sepsp.Index, dg *graph.Digraph, cmd string, src, dst int, srcsFlag, pairsFlag string, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sepsp:", err)
		return 1
	}
	switch cmd {
	case "stats":
		printStats(w, ix, dg)
	case "sssp":
		dist, err := ix.SSSPContext(context.Background(), src)
		if err != nil {
			return fail(err)
		}
		for v, d := range dist {
			fmt.Fprintf(w, "%d %g\n", v, d)
		}
	case "path":
		path, wgt, ok, err := ix.PathContext(context.Background(), src, dst)
		if err != nil {
			return fail(err)
		}
		if !ok {
			fmt.Fprintf(w, "unreachable\n")
			return 0
		}
		fmt.Fprintf(w, "weight %g\n", wgt)
		for _, v := range path {
			fmt.Fprintf(w, "%d\n", v)
		}
	case "reach":
		r, err := ix.Reachable(src)
		if err != nil {
			return fail(err)
		}
		for v, ok := range r {
			if ok {
				fmt.Fprintf(w, "%d\n", v)
			}
		}
	case "tree":
		fmt.Fprint(w, ix.RenderDecomposition())
	case "pairs":
		pairs, err := parsePairs(pairsFlag)
		if err != nil {
			return fail(err)
		}
		o, err := ix.BuildOracle()
		if err != nil {
			return fail(err)
		}
		dists, err := o.Pairs(pairs)
		if err != nil {
			return fail(err)
		}
		for i, d := range dists {
			fmt.Fprintf(w, "%d %d %g\n", pairs[i][0], pairs[i][1], d)
		}
	case "apsp":
		var srcs []int
		for _, p := range strings.Split(srcsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fail(fmt.Errorf("bad -srcs: %v", err))
			}
			srcs = append(srcs, v)
		}
		rows, err := ix.SourcesBatchedContext(context.Background(), srcs)
		if err != nil {
			return fail(err)
		}
		for i, s := range srcs {
			for v, d := range rows[i] {
				fmt.Fprintf(w, "%d %d %g\n", s, v, d)
			}
		}
	default:
		return fail(fmt.Errorf("unknown command %q", cmd))
	}
	return 0
}

// printStats writes the summary plus the per-level preprocessing and
// per-phase query cost breakdowns (the counted PRAM model, so every number
// is deterministic for a given graph, decomposition, and algorithm).
func printStats(w io.Writer, ix *sepsp.Index, dg *graph.Digraph) {
	st := ix.Stats()
	fmt.Fprintf(w, "n=%d m=%d\n", dg.N(), dg.M())
	fmt.Fprintf(w, "prep: work=%d rounds=%d\n", st.PrepWork, st.PrepRounds)
	fmt.Fprintf(w, "tree: height=%d maxSep=%d\n", st.TreeHeight, st.MaxSeparator)
	fmt.Fprintf(w, "E+: %d edges, diam(G+) <= %d\n", st.Shortcuts, st.DiameterBound)
	fmt.Fprintf(w, "query: %d phases, %d relaxations/source\n", st.QueryPhases, st.QueryWork)

	if len(st.Levels) > 0 {
		fmt.Fprintf(w, "\nprep by tree level:\n")
		fmt.Fprintf(w, "  %5s  %5s  %10s  %7s  %10s\n", "level", "nodes", "work", "rounds", "E+ contrib")
		var tn int
		var tw, tr, ts int64
		for _, ls := range st.Levels {
			fmt.Fprintf(w, "  %5d  %5d  %10d  %7d  %10d\n", ls.Level, ls.Nodes, ls.Work, ls.Rounds, ls.Shortcuts)
			tn += ls.Nodes
			tw += ls.Work
			tr += ls.Rounds
			ts += ls.Shortcuts
		}
		fmt.Fprintf(w, "  %5s  %5d  %10d  %7d  %10d\n", "total", tn, tw, tr, ts)
	}

	fmt.Fprintf(w, "\nquery by phase kind:\n")
	fmt.Fprintf(w, "  %-9s  %6s  %12s\n", "kind", "phases", "relax/source")
	var tp int
	var tw int64
	for _, ps := range st.PhaseBreakdown {
		fmt.Fprintf(w, "  %-9s  %6d  %12d\n", ps.Kind, ps.Phases, ps.Work)
		tp += ps.Phases
		tw += ps.Work
	}
	fmt.Fprintf(w, "  %-9s  %6d  %12d\n", "total", tp, tw)
}

func writeFile(path string, emit func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parsePairs(s string) ([][2]int, error) {
	if s == "" {
		return nil, fmt.Errorf("pairs: -pairs is required (u:v,u:v,…)")
	}
	var out [][2]int
	for _, part := range strings.Split(s, ",") {
		uv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(uv) != 2 {
			return nil, fmt.Errorf("pairs: bad pair %q (want u:v)", part)
		}
		u, err := strconv.Atoi(uv[0])
		if err != nil {
			return nil, fmt.Errorf("pairs: %v", err)
		}
		v, err := strconv.Atoi(uv[1])
		if err != nil {
			return nil, fmt.Errorf("pairs: %v", err)
		}
		out = append(out, [2]int{u, v})
	}
	return out, nil
}

func readCoords(path string, n int) ([][]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var coords [][]int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var row []int
		for _, p := range strings.Fields(line) {
			v, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("coords: %v", err)
			}
			row = append(row, v)
		}
		coords = append(coords, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(coords) != n {
		return nil, fmt.Errorf("coords: %d rows for %d vertices", len(coords), n)
	}
	return coords, nil
}
