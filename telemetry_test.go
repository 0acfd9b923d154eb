package sepsp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sepsp/internal/admission"
	"sepsp/internal/faultinject"
	"sepsp/internal/obs"
)

// telemetryServer builds a small served index with live telemetry attached.
func telemetryServer(t *testing.T, sopt *ServerOptions) (*Telemetry, *Server, int) {
	t.Helper()
	ix, n := serverIndex(t)
	tel := NewTelemetry(&TelemetryOptions{FlightRecorderSize: 64})
	if sopt == nil {
		sopt = &ServerOptions{}
	}
	sopt.Telemetry = tel
	srv, err := NewServer(ix, sopt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return tel, srv, n
}

// promSeries scrapes tel and returns the samples of one metric family by
// rendered label set ("" for an unlabeled series).
func promSeries(t *testing.T, tel *Telemetry, family string) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := tel.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(b.String(), "\n") {
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
		}
		if name != family {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[labels] = int64(v)
	}
	return out
}

// fakeClock is a manually advanced clock for breaker options.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestTelemetrySumsServerCounts: two servers with caches share one
// Telemetry and end requests every way seeded faults, client cancels and a
// thrashing cache allow. Meanwhile each server
// reweights under injected rebuild panics and answers brownout queries
// from a fallback engine that panics on every other call, so on a fake
// clock both breakers cycle through open, half-open and closed, while a
// scraper reads /metrics throughout. Each outcome series of
// sepsp_server_queries_total, sepsp_server_waves_total, every
// sepsp_cache_*_total family, the swap, rebuild-failure and every breaker
// transition series must equal the sum over both servers of the owners'
// counts; the fallback families must read the one shared index's counts
// once; the outcome series must add up to the calls made; and no scraped
// owner-kept series may ever fall.
//
// The load cannot starve a server: there is no real-clock queue deadline
// and the window holds every request the clients can leave queued, so a
// request that is not cancelled always reaches a wave however late the
// dispatcher runs.
func TestTelemetrySumsServerCounts(t *testing.T) {
	g, grid := gridGraph(t, 10, 10, 42)
	ix, err := Build(g, &Options{Decomposition: GridDecomposition(grid.Coord), Fallback: FallbackBaseline})
	if err != nil {
		t.Fatal(err)
	}
	n := grid.G.N()
	reweighted, _ := gridGraph(t, 10, 10, 43)
	tel := NewTelemetry(nil)
	clk := newFakeClock()
	var srvs [2]*Server
	var calls int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	const clients, perClient = 4, 50
	for i := range srvs {
		inj := faultinject.NewSeeded(faultinject.Config{
			Seed:  int64(11 + i),
			Delay: 300 * time.Microsecond,
			Sites: map[string]faultinject.SiteConfig{
				faultinject.SiteServerWave:     {PanicPerMille: 150, DelayPerMille: 500},
				faultinject.SiteClientCancel:   {CancelPerMille: 200},
				faultinject.SiteManagerRebuild: {PanicPerMille: 500},
			},
		})
		srv, err := NewServer(ix, &ServerOptions{
			MaxBatch: 4,
			// A cancelled request stays queued until the dispatcher drops
			// it; room for all of them keeps live ones from being shed.
			MaxInFlight: clients * perClient,
			CacheBytes:  int64(n) * 8 * 2,
			Telemetry:   tel,
			Inject:      inj,
			Admission: &AdmissionOptions{
				RebuildBreaker:  BreakerOptions{FailureThreshold: 1, Cooldown: time.Minute, now: clk.now},
				FallbackBreaker: BreakerOptions{FailureThreshold: 1, Cooldown: time.Minute, now: clk.now},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					ctx, cancel := context.WithCancel(context.Background())
					if inj.Fire(faultinject.SiteClientCancel) == faultinject.Cancel {
						time.AfterFunc(time.Duration(k%4)*100*time.Microsecond, cancel)
					}
					src := (c + k) % 5
					if k%2 == 0 {
						_, _ = srv.SSSP(ctx, src)
					} else {
						_, _ = srv.Dist(ctx, src, n-1-src)
					}
					cancel()
				}
				mu.Lock()
				calls += perClient
				mu.Unlock()
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				clk.advance(2 * time.Minute) // past both cooldowns
				_, _ = srv.Reweight(context.Background(), reweighted)
				// Source -1 makes the fallback engine panic, as a broken
				// one would; source 3 it answers.
				_, _, _ = srv.brownoutAnswer(context.Background(), []int{-1, 3}[k%2])
			}
		}()
	}
	owned := []string{"sepsp_index_swaps_total", "sepsp_index_rebuild_failures_total",
		"sepsp_breaker_transitions_total", "sepsp_fallback_engaged_total", "sepsp_fallback_queries_total"}
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		last := map[string]int64{}
		for {
			for _, family := range owned {
				for lbl, v := range promSeries(t, tel, family) {
					key := family + "{" + lbl + "}"
					if v < last[key] {
						t.Errorf("%s fell from %d to %d", key, last[key], v)
						return
					}
					last[key] = v
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	if t.Failed() {
		return
	}
	var h [2]ServerHealth
	var bytesTotal int64
	for i, srv := range srvs {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		h[i] = srv.Healthz()
		bytesTotal += srv.cache.Stats().BytesTotal
	}
	sum := func(f func(ServerHealth) int64) int64 { return f(h[0]) + f(h[1]) }
	sumSrv := func(f func(*Server) int64) int64 { return f(srvs[0]) + f(srvs[1]) }
	q := promSeries(t, tel, "sepsp_server_queries_total")
	var total int64
	for out := 0; out < obs.NumOutcomes; out++ {
		total += q[`outcome="`+obs.Outcome(out).String()+`"`]
	}
	if qt := tel.reg.CounterValue("sepsp_server_queries_total"); total != calls || qt != calls {
		t.Fatalf("queries_total series %v (family sum %d), want %d calls", q, qt, calls)
	}
	fb := srvs[0].mgr.Index().fb
	type check struct {
		name      string
		got, want int64
	}
	checks := []check{
		{"outcome=shed", q[`outcome="shed"`], sum(func(h ServerHealth) int64 { return h.Rejected })},
		{"outcome=cancelled", q[`outcome="cancelled"`], sum(func(h ServerHealth) int64 { return h.Cancelled })},
		{"outcome=timeout", q[`outcome="timeout"`], sum(func(h ServerHealth) int64 { return h.TimedOut })},
		{"outcome=panic", q[`outcome="panic"`], sum(func(h ServerHealth) int64 { return h.Panics })},
		{"outcome=brownout", q[`outcome="brownout"`], sum(func(h ServerHealth) int64 { return h.Brownouts })},
		{"waves", promSeries(t, tel, "sepsp_server_waves_total")[""], sum(func(h ServerHealth) int64 { return h.Waves })},
		{"cache hits", promSeries(t, tel, "sepsp_cache_hits_total")[""], sum(func(h ServerHealth) int64 { return h.CacheHits })},
		{"cache misses", promSeries(t, tel, "sepsp_cache_misses_total")[""], sum(func(h ServerHealth) int64 { return h.CacheMisses })},
		{"cache shared", promSeries(t, tel, "sepsp_cache_singleflight_shared_total")[""], sum(func(h ServerHealth) int64 { return h.CacheShared })},
		{"cache evictions", promSeries(t, tel, "sepsp_cache_evictions_total")[""], sum(func(h ServerHealth) int64 { return h.CacheEvictions })},
		{"cache bytes", promSeries(t, tel, "sepsp_cache_bytes_total")[""], bytesTotal},
		{"swaps", promSeries(t, tel, "sepsp_index_swaps_total")[""], sumSrv(func(s *Server) int64 { return s.mgr.Swaps() })},
		{"rebuild failures", promSeries(t, tel, "sepsp_index_rebuild_failures_total")[""], sumSrv(func(s *Server) int64 { return s.mgr.RebuildFailures() })},
		// Both servers serve the one index's engines, which share one
		// pair of counters: read once, not twice.
		{"fallback engaged", promSeries(t, tel, "sepsp_fallback_engaged_total")[""], fb.engaged.Value()},
		{"fallback queries", promSeries(t, tel, "sepsp_fallback_queries_total")[""], fb.queries.Value()},
	}
	trans := promSeries(t, tel, "sepsp_breaker_transitions_total")
	for st := admission.StateClosed; st <= admission.StateHalfOpen; st++ {
		rebuild := sumSrv(func(s *Server) int64 { return s.mgr.breaker.Transitions(st) })
		fallback := sumSrv(func(s *Server) int64 { return s.fbBreaker.Transitions(st) })
		if rebuild == 0 || fallback == 0 {
			t.Fatalf("no transition to %v (rebuild %d, fallback %d); the lifecycle load is vacuous", st, rebuild, fallback)
		}
		checks = append(checks,
			check{"rebuild to " + st.String(), trans[`breaker="rebuild",to="`+st.String()+`"`], rebuild},
			check{"fallback to " + st.String(), trans[`breaker="fallback",to="`+st.String()+`"`], fallback})
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: /metrics %d, owners' sum %d", c.name, c.got, c.want)
		}
	}
	t.Logf("queries %v, transitions %v, health %+v / %+v", q, trans, h[0], h[1])
	if sum(func(h ServerHealth) int64 { return h.Panics }) == 0 || sum(func(h ServerHealth) int64 { return h.CacheHits }) == 0 ||
		h[0].Waves == 0 || h[1].Waves == 0 {
		t.Fatal("seeded load produced no panic, no cache hit, or left a server idle; the test is vacuous")
	}
	if srvs[0].mgr.Swaps() == 0 || srvs[1].mgr.Swaps() == 0 || fb.queries.Value() == 0 {
		t.Fatal("a server never swapped or the fallback answered nothing; the lifecycle load is vacuous")
	}
}

// degradedIndex builds an index whose every build round panics, so Build
// degrades it to the baseline fallback engine. No Telemetry is attached.
func degradedIndex(t *testing.T) (*Index, int) {
	t.Helper()
	g, grid := gridGraph(t, 6, 6, 7)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed:  1,
		Sites: map[string]faultinject.SiteConfig{faultinject.SitePramWorker: {PanicPerMille: 1000}},
	})
	ix, err := Build(g, &Options{Fallback: FallbackBaseline, Inject: inj})
	if err != nil {
		t.Fatalf("Build should degrade, not fail: %v", err)
	}
	if !ix.Degraded() {
		t.Fatal("index not degraded after build-time panics")
	}
	return ix, grid.G.N()
}

// TestTelemetryCountsBuildDegradation: a degradation during Build happens
// before any Telemetry exists; /metrics must still show it next to the
// degraded gauge, because the count is the index's own.
func TestTelemetryCountsBuildDegradation(t *testing.T) {
	ix, _ := degradedIndex(t)
	tel := NewTelemetry(nil)
	srv, err := NewServer(ix, &ServerOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.SSSP(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if got := promSeries(t, tel, "sepsp_server_degraded")[`server="0"`]; got != 1 {
		t.Fatalf("sepsp_server_degraded = %d, want 1", got)
	}
	if got := promSeries(t, tel, "sepsp_fallback_engaged_total")[""]; got < 1 {
		t.Fatalf("sepsp_fallback_engaged_total = %d on a degraded build, want >= 1", got)
	}
	if got := promSeries(t, tel, "sepsp_fallback_queries_total")[""]; got != 1 {
		t.Fatalf("sepsp_fallback_queries_total = %d after one query, want 1", got)
	}
}

// TestTelemetryCountsBuildDegradationWithoutServer: an index built with
// Options.Telemetry is attached at build, so a degradation during Build
// shows on that Telemetry's /metrics with no Server over the index, and so
// do the queries the fallback engine then answers.
func TestTelemetryCountsBuildDegradationWithoutServer(t *testing.T) {
	g, _ := gridGraph(t, 6, 6, 7)
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed:  1,
		Sites: map[string]faultinject.SiteConfig{faultinject.SitePramWorker: {PanicPerMille: 1000}},
	})
	tel := NewTelemetry(nil)
	ix, err := Build(g, &Options{Fallback: FallbackBaseline, Inject: inj, Telemetry: tel})
	if err != nil {
		t.Fatalf("Build should degrade, not fail: %v", err)
	}
	if !ix.Degraded() {
		t.Fatal("index not degraded after build-time panics")
	}
	if got := promSeries(t, tel, "sepsp_fallback_engaged_total")[""]; got < 1 {
		t.Fatalf("sepsp_fallback_engaged_total = %d on a degraded build, want >= 1", got)
	}
	mustSSSP(t, ix, 2)
	if got := promSeries(t, tel, "sepsp_fallback_queries_total")[""]; got != 1 {
		t.Fatalf("sepsp_fallback_queries_total = %d after one query, want 1", got)
	}
}

// TestTelemetryIndexFamiliesOnlyFromBuild: a Telemetry attached only
// through ServerOptions exposes none of the index's cost families, while
// one also given to Build exposes them beside the server's, with the
// index's worker gauges and fallback counts once, not once per handle.
func TestTelemetryIndexFamiliesOnlyFromBuild(t *testing.T) {
	indexFamilies := []string{"sepsp_prep_work_total", "sepsp_prep_rounds_total", "sepsp_prep_contributions_total",
		"sepsp_query_relaxations_total", "sepsp_query_phases_total", "sepsp_query_cancelled_total"}
	for _, atBuild := range []bool{false, true} {
		g, grid := gridGraph(t, 6, 6, 7)
		tel := NewTelemetry(nil)
		opt := &Options{Decomposition: GridDecomposition(grid.Coord), Fallback: FallbackBaseline}
		if atBuild {
			opt.Telemetry = tel
		}
		ix, err := Build(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ix, &ServerOptions{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		// The build's self-check queries count too; measure one served query.
		phases := tel.reg.CounterValue("sepsp_query_phases_total")
		if _, err := srv.SSSP(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		var b strings.Builder
		if err := tel.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		for _, fam := range indexFamilies {
			if got := strings.Contains(b.String(), "# TYPE "+fam+" counter"); got != atBuild {
				t.Errorf("atBuild=%v: family %s exposed=%v", atBuild, fam, got)
			}
		}
		if atBuild {
			if got := tel.reg.CounterValue("sepsp_query_phases_total") - phases; got != int64(ix.Stats().QueryPhases) {
				t.Errorf("one served query ran %d phases, want %d", got, ix.Stats().QueryPhases)
			}
		}
		if busy := promSeries(t, tel, "sepsp_worker_busy_iterations"); len(busy) != 1 {
			t.Errorf("atBuild=%v: %d worker gauges, want the index's one", atBuild, len(busy))
		}
		ix.fb.engage()
		if got := promSeries(t, tel, "sepsp_fallback_engaged_total")[""]; got != 1 {
			t.Errorf("atBuild=%v: sepsp_fallback_engaged_total = %d after one engagement, want 1", atBuild, got)
		}
	}
}

// TestTelemetryFallbackCountsPerIndex: two servers over one degraded index,
// each with its own Telemetry. Queries through the first must show on the
// first Telemetry; the second, which serves the same index, reads the same
// index-owned counts rather than taking them over.
func TestTelemetryFallbackCountsPerIndex(t *testing.T) {
	ix, _ := degradedIndex(t)
	var tels [2]*Telemetry
	var srvs [2]*Server
	for i := range srvs {
		tels[i] = NewTelemetry(nil)
		srv, err := NewServer(ix, &ServerOptions{Telemetry: tels[i]})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[i] = srv
	}
	for src := 0; src < 5; src++ {
		if _, err := srvs[0].SSSP(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	for i, tel := range tels {
		if got := promSeries(t, tel, "sepsp_fallback_queries_total")[""]; got != 5 {
			t.Errorf("telemetry %d: sepsp_fallback_queries_total = %d, want 5", i, got)
		}
	}
}

// TestTelemetryCountsQueries drives queries through an instrumented server
// and checks the counter families and phase histograms fill in.
func TestTelemetryCountsQueries(t *testing.T) {
	tel, srv, n := telemetryServer(t, nil)
	const reqs = 24
	for i := 0; i < reqs; i++ {
		if _, err := srv.SSSP(context.Background(), i%n); err != nil {
			t.Fatal(err)
		}
	}
	if got := tel.reg.CounterValue("sepsp_server_queries_total"); got != reqs {
		t.Fatalf("sepsp_server_queries_total = %d, want %d", got, reqs)
	}
	var b bytes.Buffer
	if err := tel.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`sepsp_server_queries_total{outcome="ok"} 24`,
		"# TYPE sepsp_server_queue_wait_seconds histogram",
		"sepsp_server_queue_wait_seconds_count 24",
		"sepsp_server_compute_seconds_count 24",
		"# TYPE sepsp_server_wave_size histogram",
		"sepsp_server_waves_total",
		`sepsp_server_queue_wait_seconds_quantile{q="0.99"}`,
		`sepsp_server_compute_seconds_quantile{q="0.5"}`,
		`sepsp_server_queue_depth{server="0"} 0`,
		`sepsp_server_degraded{server="0"} 0`,
		`sepsp_worker_busy_iterations{index="0",worker="0"}`,
		"sepsp_exec_load_imbalance",
		"sepsp_query_relaxations_avoided_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Log(out)
	}
}

// TestTelemetryFlightRecorderCapturesFailure injects wave panics and checks
// the flight recorder dump contains both failure and wave events.
func TestTelemetryFlightRecorderCapturesFailure(t *testing.T) {
	inj := faultinject.NewSeeded(faultinject.Config{
		Seed: 3,
		Sites: map[string]faultinject.SiteConfig{
			faultinject.SiteServerWave: {PanicPerMille: 500},
		},
	})
	tel, srv, n := telemetryServer(t, &ServerOptions{Inject: inj})
	panics := 0
	for i := 0; i < 32; i++ {
		if _, err := srv.SSSP(context.Background(), i%n); err != nil {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatal(err)
			}
			panics++
		}
	}
	if panics == 0 {
		t.Fatal("seeded injector fired no panics; test is vacuous")
	}
	var b bytes.Buffer
	if err := tel.WriteFlightRecorder(&b); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Capacity int `json:"capacity"`
		Events   []struct {
			Seq     uint64 `json:"seq"`
			Kind    string `json:"kind"`
			Outcome string `json:"outcome"`
			Wave    int64  `json:"wave"`
		} `json:"events"`
	}
	if err := json.Unmarshal(b.Bytes(), &dump); err != nil {
		t.Fatalf("flight recorder is not valid JSON: %v\n%s", err, b.String())
	}
	if dump.Capacity != 64 {
		t.Fatalf("capacity = %d, want 64", dump.Capacity)
	}
	var failures, waves int
	lastSeq := uint64(0)
	for _, e := range dump.Events {
		if e.Seq <= lastSeq {
			t.Fatalf("events out of order: seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case "failure":
			failures++
			if e.Outcome != "panic" {
				t.Errorf("failure event outcome = %q, want panic", e.Outcome)
			}
		case "wave":
			waves++
		}
	}
	if failures == 0 || waves == 0 {
		t.Fatalf("flight recorder: %d failures, %d waves; want ≥1 of each", failures, waves)
	}
	if v := tel.reg.CounterValue("sepsp_server_queries_total"); v != 32 {
		t.Fatalf("queries_total = %d, want 32", v)
	}
}

// TestTelemetryShedAndBackoff fills the admission cap on a held dispatcher
// so further requests shed, then checks the shed outcome and Retry's
// backoff counter are recorded.
func TestTelemetryShedAndBackoff(t *testing.T) {
	ix, _ := serverIndex(t)
	tel := NewTelemetry(nil)
	// newServer (unexported) does not start the dispatcher, so admitted
	// requests stay queued and the cap fills deterministically.
	srv, err := newServer(ix, &ServerOptions{MaxInFlight: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = srv.SSSP(ctx, i)
		}(i)
	}
	for srv.q.Len() < 2 {
		time.Sleep(time.Millisecond)
	}
	retry := &RetryOptions{
		MaxAttempts: 3,
		Seed:        1,
		Sleep:       func(context.Context, time.Duration) error { return nil },
		Telemetry:   tel,
	}
	err = Retry(ctx, retry, func() error {
		_, err := srv.SSSP(ctx, 0)
		return err
	})
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("err = %v, want ErrServerOverloaded", err)
	}
	cancel()
	wg.Wait()
	srv.Close()
	if got := tel.reg.CounterValue("sepsp_retry_backoffs_total"); got != 2 {
		t.Fatalf("backoffs = %d, want 2 (3 attempts)", got)
	}
	var b bytes.Buffer
	if err := tel.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `sepsp_server_queries_total{outcome="shed"} 3`) {
		t.Fatalf("missing shed outcome count:\n%s", b.String())
	}
}

// TestTelemetryHandlerEndpoints exercises the embeddable handler end to
// end: content types, healthz shape, and the no-server 503.
func TestTelemetryHandlerEndpoints(t *testing.T) {
	tel, srv, n := telemetryServer(t, nil)
	for i := 0; i < 8; i++ {
		if _, err := srv.SSSP(context.Background(), i%n); err != nil {
			t.Fatal(err)
		}
	}
	h := tel.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/metrics")
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `sepsp_server_queries_total{outcome="ok"} 8`) {
		t.Fatal("/metrics body missing query counter")
	}

	rec = get("/healthz")
	if rec.Code != 200 {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var health ServerHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz is not ServerHealth JSON: %v", err)
	}
	if health.Requests != 8 || health.Closed {
		t.Fatalf("/healthz = %+v, want 8 requests on an open server", health)
	}

	rec = get("/flightrecorder")
	var dump map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/flightrecorder is not JSON: %v", err)
	}
	if _, ok := dump["events"]; !ok {
		t.Fatal("/flightrecorder missing events key")
	}

	if rec := get("/debug/pprof/cmdline"); rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status = %d", rec.Code)
	}

	// A telemetry with no attached server must refuse health, not panic.
	rec = httptest.NewRecorder()
	NewTelemetry(nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("unattached /healthz status = %d, want 503", rec.Code)
	}
}

// TestServerHealthGolden pins the ServerHealth JSON wire shape — the
// /healthz serialization contract — against a golden file. Run with
// -update to regenerate after an intentional change.
func TestServerHealthGolden(t *testing.T) {
	h := ServerHealth{
		Closed:      false,
		Degraded:    true,
		Epoch:       42,
		Rebuilding:  true,
		QueueDepth:  3,
		MaxInFlight: 128,
		MaxBatch:    16,
		Requests:    1000,
		Rejected:    7,
		Cancelled:   2,
		TimedOut:    1,
		Waves:       90,
		Panics:      1,

		EffectiveLimit: 64,
		Brownout:       true,
		Brownouts:      5,
		Evicted:        3,

		CacheHits:      200,
		CacheMisses:    12,
		CacheShared:    40,
		CacheEvictions: 4,
		CacheBytes:     32768,
	}
	got, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "healthz.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by writing the JSON below to %s)\n%s", err, golden, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ServerHealth JSON drifted from golden file %s:\n got: %s\nwant: %s", golden, got, want)
	}
	wantStr := "closed=false degraded=true epoch=42 rebuilding=true queue=3/128 maxBatch=16 requests=1000 rejected=7 cancelled=2 timedout=1 waves=90 panics=1 limit=64 brownout=true brownouts=5 evicted=3 cacheHits=200 cacheMisses=12 cacheShared=40 cacheEvictions=4 cacheBytes=32768"
	if s := h.String(); s != wantStr {
		t.Fatalf("String() = %q\n     want %q", s, wantStr)
	}
}

// TestTelemetryScrapeStress races live queries against continuous /metrics
// scrapes and flight-recorder reads — the -race proof that the lock-free
// registry and ring are safe to scrape while serving.
func TestTelemetryScrapeStress(t *testing.T) {
	tel, srv, n := telemetryServer(t, &ServerOptions{MaxBatch: 8})
	h := tel.Handler()
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/healthz", "/flightrecorder"} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 {
						t.Errorf("%s status = %d", path, rec.Code)
						return
					}
				}
			}
		}()
	}
	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := srv.SSSP(context.Background(), (c*perClient+i)%n); err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if t.Failed() {
		return
	}
	if got := tel.reg.CounterValue("sepsp_server_queries_total"); got != clients*perClient {
		t.Fatalf("sepsp_server_queries_total = %d, want %d", got, clients*perClient)
	}
}

// TestServerDisabledTelemetryAllocs pins the uninstrumented query path: a
// server built without Telemetry and without a Logger must not pay any
// allocation for the instrumentation hooks (the budget below is the
// serving path's pre-telemetry cost; the telemetry branch must add zero).
func TestServerDisabledTelemetryAllocs(t *testing.T) {
	ix, _ := serverIndex(t)
	srv, err := NewServer(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.SSSP(ctx, 1); err != nil {
		t.Fatal(err) // warm pools outside the measured window
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := srv.SSSP(ctx, 1); err != nil {
			t.Fatal(err)
		}
	})
	// The serving path allocates the request struct, reply channel, wave
	// bookkeeping, and the result slice handed to the caller; 16 covers it
	// with slack for scheduler noise. What this test pins is that the
	// disabled-telemetry branches (s.tel == nil, s.logger == nil) stay
	// allocation-free: instrumenting this path must not move the number.
	if avg > 16 {
		t.Fatalf("disabled-telemetry SSSP = %.1f allocs/op, budget 16", avg)
	}
}
