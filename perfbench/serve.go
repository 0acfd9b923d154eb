package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"sepsp"
	"sepsp/internal/obs"
)

// serveSpec is an open-loop serving workload on a grid.
type serveSpec struct {
	dims      []int
	rate      float64       // offered load, requests per second
	zipf      float64       // Zipf exponent of the sources
	cacheFrac float64       // share of all n distance vectors the cache may hold
	reweight  time.Duration // period of Manager.Reweight during the run; 0 for none
}

// serveHotReweight's Zipf exponent gives the cache about 80% hits with a
// new epoch every second (1.1 gives 63%, which puts the median request on
// the edge between hits and misses).
var serveHotReweight = &serveSpec{dims: []int{64, 64}, rate: 1000, zipf: 1.3, cacheFrac: 0.25, reweight: time.Second}

const (
	serveSetups  = 10                     // set-ups per run; setup_s is their median
	serveWarmup  = 3 * time.Second        // load before the measured window
	probeWindow  = 5 * time.Second        // measured length of the default-limiter probe
	postSwapSpan = 100 * time.Millisecond // how long after a swap a request counts as post-swap
	checkSample  = 64                     // requests per run whose answers are compared with Dijkstra
	// lateLimit is how far behind its schedule the load generator may fall
	// at the 99th percentile before the run is invalid: past it, the
	// offered load is no longer the stated rate.
	lateLimit = 50 * time.Millisecond
)

// admissionFloor is the lowest the adaptive admission limit may go: eight
// full waves of the default size, so that no request of either serving
// workload is refused, even while a reweight holds the cores. A workload
// must be one on which no request fails, and with the default floor of 2
// the limiter refuses requests at loads the kernel sustains easily (a
// quarter of them at 300 req/s, a tenth at 150 req/s, on two vCPUs). The
// traced run measures the default as admission.default_shed_frac.
const admissionFloor = 128

// serverOptions are the options of the measured server; the probe of the
// default limiter drops the admission floor.
func (sp *serveSpec) serverOptions(n int) *sepsp.ServerOptions {
	opt := &sepsp.ServerOptions{Admission: &sepsp.AdmissionOptions{Min: admissionFloor}}
	if sp.cacheFrac > 0 {
		opt.CacheBytes = int64(sp.cacheFrac * float64(n) * float64(n) * 8)
	}
	return opt
}

// errClass names how a request ended.
type errClass int

const (
	classOK errClass = iota
	classOverloaded
	classQueueTimeout
	classOther
)

func classify(err error) errClass {
	switch {
	case err == nil:
		return classOK
	case errors.Is(err, sepsp.ErrServerOverloaded):
		return classOverloaded
	case errors.Is(err, sepsp.ErrQueueTimeout):
		return classQueueTimeout
	default:
		return classOther
	}
}

// outcome is what one request of an open-loop run saw.
type outcome struct {
	done           time.Duration // when the call returned, from the schedule start
	class          errClass
	err            error
	epoch0, epoch1 uint64    // the index epoch before the call and after it returned
	dist           []float64 // kept only for requests in the checked sample
}

// reweighCall is one Manager.Reweight made during a run, from the start
// of the schedule.
type reweighCall struct {
	start, end time.Duration
}

// serveWindow is the outcome of one open-loop run: warm-up, then the
// measured window of cfg.seconds.
type serveWindow struct {
	reqs     []request
	outs     []outcome
	sent     []time.Duration // when each request was sent, from the schedule start
	warmup   time.Duration
	span     time.Duration // warm-up plus the measured window
	reweighs []reweighCall
	epochSet map[uint64]int // weight set in force at each epoch

	// Server-side readings at the start and end of the measured window.
	health0, health1 sepsp.ServerHealth
	hist0, hist1     map[string]*promHist
	swaps0, swaps1   int64
	limits           sample // effective admission limit, sampled through the window
}

func (sp *serveSpec) run(cfg config) (*result, error) {
	in := gridInputs(sp.dims)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	opt := sp.serverOptions(in.n())
	newServer := func(ix *sepsp.Index) (*sepsp.Server, error) { return sepsp.NewServer(ix, opt) }
	// Set-ups are timed half before the window and half after it, so that
	// a slow stretch of the host meets at most half of them.
	ix, srv, setups, err := setUp(cfg, in, serveSetups/2, tr, newServer)
	if err != nil {
		return nil, err
	}
	measure := time.Duration(cfg.seconds) * time.Second
	plain, err := sp.window(cfg, in, srv, nil, nil, measure)
	srv.Close()
	if err != nil {
		return nil, err
	}
	_, srv, more, err := setUp(cfg, in, serveSetups-serveSetups/2, tr, newServer)
	if err != nil {
		return nil, err
	}
	srv.Close()
	setups = append(setups, more...)

	res := &result{}
	e2e, att, failed := plain.endToEnd(cfg)
	if res.e2e, err = ordered(append(e2e, setupMetric(setups, "sepsp.Build + sepsp.NewServer")), endToEnd, nil); err != nil {
		return nil, err
	}
	res.latency = plain.latencies()
	res.attempted, res.failed = att, failed
	plain.printRequests("untraced")
	if err := plain.validate(); err != nil {
		return nil, err
	}
	answers := plain.answers()
	if cfg.trace {
		tel := sepsp.NewTelemetry(nil)
		topt := *opt
		topt.Telemetry = tel
		tsrv, err := sepsp.NewServer(ix, &topt)
		if err != nil {
			return nil, err
		}
		traced, err := sp.window(cfg, in, tsrv, tr, tel, measure)
		tsrv.Close()
		if err != nil {
			return nil, err
		}
		traced.printRequests("traced")
		if err := traced.validate(); err != nil {
			return nil, err
		}
		answers = append(answers, traced.answers()...)
		probeShed, err := sp.probeDefaultLimiter(cfg, in, ix)
		if err != nil {
			return nil, err
		}
		te2e, _, _ := traced.endToEnd(cfg)
		lm, err := layerMetrics(cfg, in, ix, tr)
		if err != nil {
			return nil, err
		}
		lm = append(lm, res.latency...)
		lm = append(lm, traced.serverLayers()...)
		lm = append(lm, probeShed)
		lm = append(lm, traced.requestLayers()...)
		lm = append(lm, overhead(append(res.latency, e2e...), append(traced.latencies(), te2e...))...)
		if res.layer, err = ordered(lm, perLayer, nil); err != nil {
			return nil, err
		}
		printSpans(tr)
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	res.checked, res.wrong = newChecker(in.sets...).checkAll(answers)
	return res, nil
}

// window drives srv open loop: warm-up, then measure. With a
// tracer every call is a span; with telemetry the server's histograms are
// read at the start and the end of the measured window.
func (sp *serveSpec) window(cfg config, in *inputs, srv *sepsp.Server, tr *tracer, tel *sepsp.Telemetry, measure time.Duration) (*serveWindow, error) {
	n := in.n()
	rng := rand.New(rand.NewSource(cfg.seed))
	span := serveWarmup + measure
	times := poissonTimes(rng, sp.rate, span)
	w := &serveWindow{
		reqs:     schedule(times, zipfSources(rng, n, len(times), sp.zipf)),
		outs:     make([]outcome, len(times)),
		warmup:   serveWarmup,
		span:     span,
		epochSet: map[uint64]int{},
	}
	keep := make([]bool, len(w.reqs))
	first := firstMeasured(w.reqs, w.warmup)
	if m := len(w.reqs) - first; m > 0 {
		for _, i := range rng.Perm(m)[:min(checkSample, m)] {
			keep[first+i] = true
		}
	}
	mgr := srv.Manager()
	w.epochSet[mgr.Epoch()] = 0

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	root := tr.begin("window", -1, -1)
	start := time.Now()
	var bg sync.WaitGroup
	var rwErr error
	if sp.reweight > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			rwErr = w.reweighLoop(ctx, start, sp.reweight, mgr, in, tr, root)
		}()
	}
	var readErr error
	bg.Add(1)
	go func() {
		defer bg.Done()
		readErr = w.watch(ctx, start, srv, tel)
	}()

	w.sent = openLoop(start, w.reqs, func(i int) {
		r := w.reqs[i]
		o := &w.outs[i]
		o.epoch0 = mgr.Epoch()
		id := tr.begin("Server.SSSP", root, int64(i))
		dist, err := srv.SSSP(ctx, r.src)
		tr.end(id)
		o.done = time.Since(start)
		o.epoch1 = mgr.Epoch()
		o.class, o.err = classify(err), err
		if keep[i] && err == nil {
			o.dist = dist
		}
	})
	w.swaps1 = mgr.Swaps()
	w.health1 = srv.Healthz()
	if tel != nil {
		var err error
		if w.hist1, err = readHistograms(tel); err != nil {
			return nil, err
		}
	}
	cancel()
	bg.Wait()
	tr.end(root)
	if rwErr != nil {
		return nil, rwErr
	}
	if readErr != nil {
		return nil, readErr
	}
	return w, nil
}

// probeDefaultLimiter offers the workload's load for probeWindow to a
// server with the default admission options (no reweights) and reports
// the share of requests it refused.
func (sp *serveSpec) probeDefaultLimiter(cfg config, in *inputs, ix *sepsp.Index) (metric, error) {
	opt := sp.serverOptions(in.n())
	opt.Admission = nil
	srv, err := sepsp.NewServer(ix, opt)
	if err != nil {
		return metric{}, err
	}
	probe := *sp
	probe.reweight = 0
	w, err := probe.window(cfg, in, srv, nil, nil, probeWindow)
	srv.Close()
	if err != nil {
		return metric{}, err
	}
	c, _ := w.classCounts()
	attempted := c[0] + c[1] + c[2] + c[3]
	return metric{name: "admission.default_shed_frac", value: frac(c[classOverloaded], attempted), unit: "frac", n: attempted,
		note: fmt.Sprintf("refused with the default admission floor, %v at the same load", probeWindow)}, nil
}

// reweighLoop calls Manager.Reweight every period until ctx ends,
// alternating the two weight sets, and records each call.
func (w *serveWindow) reweighLoop(ctx context.Context, start time.Time, period time.Duration, mgr *sepsp.Manager, in *inputs, tr *tracer, root int) error {
	next := 1
	for k := 1; ; k++ {
		t := time.NewTimer(time.Until(start.Add(time.Duration(k) * period)))
		select {
		case <-ctx.Done():
			t.Stop()
			return nil
		case <-t.C:
		}
		c := reweighCall{start: time.Since(start)}
		id := tr.begin("Manager.Reweight", root, -1)
		epoch, err := mgr.Reweight(ctx, in.public[next])
		tr.end(id)
		if err != nil {
			if ctx.Err() != nil {
				return nil // the run ended mid-rebuild
			}
			return fmt.Errorf("reweight: %w", err)
		}
		c.end = time.Since(start)
		w.reweighs = append(w.reweighs, c)
		w.epochSet[epoch] = next
		next ^= 1
	}
}

// watch takes the server-side readings at the start of the measured window
// and, with telemetry, samples the admission limit until ctx ends.
func (w *serveWindow) watch(ctx context.Context, start time.Time, srv *sepsp.Server, tel *sepsp.Telemetry) error {
	t := time.NewTimer(time.Until(start.Add(w.warmup)))
	select {
	case <-ctx.Done():
		t.Stop()
		return nil
	case <-t.C:
	}
	w.health0 = srv.Healthz()
	w.swaps0 = srv.Manager().Swaps()
	if tel == nil {
		return nil
	}
	var err error
	if w.hist0, err = readHistograms(tel); err != nil {
		return err
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			w.limits = append(w.limits, float64(srv.Healthz().EffectiveLimit))
		}
	}
}

func readHistograms(tel *sepsp.Telemetry) (map[string]*promHist, error) {
	var b strings.Builder
	if err := tel.WriteMetrics(&b); err != nil {
		return nil, fmt.Errorf("read telemetry: %w", err)
	}
	return parseHistograms(b.String())
}

// firstMeasured is the index of the first request due after the warm-up.
func firstMeasured(reqs []request, warmup time.Duration) int {
	for i, r := range reqs {
		if r.at >= warmup {
			return i
		}
	}
	return len(reqs)
}

// measured returns the indices of the requests due in the measured window.
func (w *serveWindow) measured() []int {
	var out []int
	for i := firstMeasured(w.reqs, w.warmup); i < len(w.reqs); i++ {
		out = append(out, i)
	}
	return out
}

// latencyMS is request i's latency in milliseconds.
func (w *serveWindow) latencyMS(i int) float64 {
	return float64(latency(w.reqs[i], w.sent[i], w.outs[i].done)) / float64(time.Millisecond)
}

// endToEnd computes the end-to-end metrics of the measured window, and
// how many requests were attempted and failed in it.
func (w *serveWindow) endToEnd(cfg config) ([]metric, int, int) {
	c, _ := w.classCounts()
	attempted, ok := c[0]+c[1]+c[2]+c[3], float64(c[classOK])
	secs := float64(cfg.seconds)
	rw := w.loadReweighs()
	return []metric{
		{name: "goodput_rps", value: ok / secs, unit: "1/s", n: attempted, note: "exact answers per second at the offered rate"},
		{name: "sources_per_s", value: ok / secs, unit: "1/s", n: attempted, note: "one source per request"},
		{name: "reweight_s", value: rw.median(), unit: "s", n: len(rw), note: "Manager.Reweight under load"},
	}, attempted, attempted - int(ok)
}

// latencies summarizes the latency of the measured window's successful
// requests.
func (w *serveWindow) latencies() []metric {
	var lat sample
	for _, i := range w.measured() {
		if w.outs[i].class == classOK {
			lat = append(lat, w.latencyMS(i))
		}
	}
	return latencyMetrics(lat, "successful requests, from the due time or an earlier send")
}

// loadReweighs are the durations of the reweights started in the measured
// window.
func (w *serveWindow) loadReweighs() sample {
	var s sample
	for _, c := range w.reweighs {
		if c.start >= w.warmup && c.start < w.span {
			s = append(s, (c.end - c.start).Seconds())
		}
	}
	return s
}

// answers are the checked sample: kept answers that no swap straddled,
// with the weight set of their epoch.
func (w *serveWindow) answers() []answer {
	var out []answer
	for i, o := range w.outs {
		if o.dist == nil || o.epoch0 != o.epoch1 {
			continue
		}
		set, ok := w.epochSet[o.epoch0]
		if !ok {
			set = -1 // an epoch no recorded swap produced: check fails loudly
		}
		out = append(out, answer{src: w.reqs[i].src, weights: set, dist: o.dist})
	}
	return out
}

// classCounts splits the measured requests by how they ended.
func (w *serveWindow) classCounts() (counts [4]int, firstOther error) {
	for _, i := range w.measured() {
		c := w.outs[i].class
		counts[c]++
		if c == classOther && firstOther == nil {
			firstOther = w.outs[i].err
		}
	}
	return counts, firstOther
}

func (w *serveWindow) lateness() sample {
	var s sample
	for _, i := range w.measured() {
		s = append(s, float64(lateness(w.reqs[i], w.sent[i]))/float64(time.Millisecond))
	}
	return s
}

func (w *serveWindow) printRequests(label string) {
	c, firstOther := w.classCounts()
	late := w.lateness().sorted()
	fmt.Printf("requests (%s): attempted=%d ok=%d overloaded=%d queue_timeout=%d other=%d\n",
		label, c[0]+c[1]+c[2]+c[3], c[classOK], c[classOverloaded], c[classQueueTimeout], c[classOther])
	if firstOther != nil {
		fmt.Printf("requests (%s): first other error: %v\n", label, firstOther)
	}
	fmt.Printf("generator (%s): lateness p50=%.3f ms p99=%.3f ms max=%.3f ms over %d sends\n",
		label, percentile(late, 0.5), percentile(late, 0.99), percentile(late, 1), len(late))
}

// validate fails the run when the generator fell behind its schedule.
func (w *serveWindow) validate() error {
	late := w.lateness().sorted()
	if p99 := percentile(late, 0.99); p99 > float64(lateLimit)/float64(time.Millisecond) {
		return fmt.Errorf("%w: the load generator ran %.1f ms late at p99 (limit %v)", errInvalid, p99, lateLimit)
	}
	return nil
}

// requestLayers are the load generator's own numbers.
func (w *serveWindow) requestLayers() []metric {
	c, _ := w.classCounts()
	late := w.lateness().sorted()
	return []metric{
		{name: "loadgen.lateness_p99_ms", value: percentile(late, 0.99), unit: "ms", n: len(late)},
		{name: "loadgen.lateness_max_ms", value: percentile(late, 1), unit: "ms", n: len(late)},
		{name: "requests.ok", value: float64(c[classOK]), unit: "count"},
		{name: "requests.overloaded", value: float64(c[classOverloaded]), unit: "count"},
		{name: "requests.queue_timeout", value: float64(c[classQueueTimeout]), unit: "count"},
		{name: "requests.other_error", value: float64(c[classOther]), unit: "count"},
	}
}

// serverLayers are the admission, server, distcache and manager metrics of
// a traced window, from the server's own telemetry and health readings.
func (w *serveWindow) serverLayers() []metric {
	h0, h1 := w.health0, w.health1
	c, _ := w.classCounts()
	attempted := c[0] + c[1] + c[2] + c[3]
	hist := func(name string) obs.HistogramSnapshot {
		if h := w.hist1[name]; h != nil {
			return h.since(w.hist0[name])
		}
		return obs.HistogramSnapshot{}
	}
	qw := hist("sepsp_server_queue_wait_seconds")
	ct := hist("sepsp_server_compute_seconds")
	ws := hist("sepsp_server_wave_size")
	rb := hist("sepsp_index_rebuild_duration_seconds")
	bucket := "bucket-estimated from live telemetry"
	out := []metric{
		{name: "admission.queue_wait_p50_ms", value: qw.Quantile(0.5) * 1e3, unit: "ms", n: int(qw.Count), note: bucket},
		{name: "admission.queue_wait_p99_ms", value: qw.Quantile(0.99) * 1e3, unit: "ms", n: int(qw.Count), note: bucket},
		{name: "admission.shed_frac", value: frac(c[classOverloaded], attempted), unit: "frac", n: attempted},
		{name: "admission.limit_mean", value: w.limits.mean(), unit: "count", n: len(w.limits), note: "effective limit sampled every 20 ms"},
		{name: "admission.evicted", value: float64(h1.Evicted - h0.Evicted), unit: "count"},
		{name: "server.wave_size_mean", value: ws.Mean(), unit: "count", n: int(ws.Count)},
		{name: "server.wave_size_p99", value: ws.Quantile(0.99), unit: "count", n: int(ws.Count), note: bucket},
		{name: "server.compute_p50_ms", value: ct.Quantile(0.5) * 1e3, unit: "ms", n: int(ct.Count), note: bucket},
		{name: "server.compute_p99_ms", value: ct.Quantile(0.99) * 1e3, unit: "ms", n: int(ct.Count), note: bucket},
	}
	hits, misses := h1.CacheHits-h0.CacheHits, h1.CacheMisses-h0.CacheMisses
	out = append(out,
		metric{name: "distcache.hit_frac", value: frac(int(hits), int(hits+misses)), unit: "frac", n: int(hits + misses)},
		metric{name: "distcache.shared", value: float64(h1.CacheShared - h0.CacheShared), unit: "count"},
		metric{name: "distcache.evictions", value: float64(h1.CacheEvictions - h0.CacheEvictions), unit: "count"},
		metric{name: "distcache.resident_bytes", value: float64(h1.CacheBytes), unit: "B"},
	)
	var post sample
	for _, i := range w.measured() {
		if w.outs[i].class == classOK && w.afterSwap(w.reqs[i].at) {
			post = append(post, w.latencyMS(i))
		}
	}
	return append(out,
		metric{name: "manager.rebuild_s", value: rb.Mean(), unit: "s", n: int(rb.Count), note: "mean of the rebuild-duration histogram"},
		metric{name: "manager.swaps", value: float64(w.swaps1 - w.swaps0), unit: "count", note: "swaps in the measured window"},
		metric{name: "manager.post_swap_p99_ms", value: percentile(post.sorted(), 0.99), unit: "ms", n: len(post),
			note: "requests due within 100 ms after a swap"},
	)
}

// afterSwap reports whether a request due at at falls within postSwapSpan
// after a swap completed.
func (w *serveWindow) afterSwap(at time.Duration) bool {
	for _, c := range w.reweighs {
		if at >= c.end && at < c.end+postSwapSpan {
			return true
		}
	}
	return false
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// overhead compares the traced window's end-to-end numbers with the
// untraced window's: (traced - untraced) / untraced.
func overhead(plain, traced []metric) []metric {
	val := func(ms []metric, name string) float64 {
		for _, m := range ms {
			if m.name == name {
				return m.value
			}
		}
		return 0
	}
	rel := func(name string) float64 {
		p := val(plain, name)
		if p == 0 {
			return 0
		}
		return (val(traced, name) - p) / p
	}
	return []metric{
		{name: "trace.overhead_p50_frac", value: rel("requests.latency_p50_ms"), unit: "frac", note: "traced vs untraced requests.latency_p50_ms"},
		{name: "trace.overhead_p90_frac", value: rel("requests.latency_p90_ms"), unit: "frac", note: "traced vs untraced requests.latency_p90_ms"},
		{name: "trace.overhead_goodput_frac", value: rel("goodput_rps"), unit: "frac", note: "traced vs untraced goodput_rps"},
	}
}

// printSpans prints the per-name span summary of a traced run.
func printSpans(tr *tracer) {
	for _, s := range tr.summary() {
		fmt.Printf("span %-34s count=%-6d total=%-12v self=%v\n", s.Name, s.Count, s.Total.Round(time.Microsecond), s.Self.Round(time.Microsecond))
	}
}
