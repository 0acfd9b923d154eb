package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sepsp"
)

// batchSpec is a closed-loop offline sweep: one caller asks
// Index.SourcesBatchedContext for waves of distinct sources, the next wave
// as soon as the last returns. No server is involved.
type batchSpec struct {
	dims []int
	wave int // sources per call
}

var batchCube = &batchSpec{dims: []int{16, 16, 16}, wave: 32}

const (
	batchSetups = 4 // set-ups per run; setup_s is their median
	idleCalls   = 6 // Manager.Reweight calls per run; reweight_s is their median
	batchWarmup = 2 // waves before the measured window
)

// batchWindow is the outcome of one closed-loop run.
type batchWindow struct {
	lat     sample // milliseconds per call
	elapsed time.Duration
	answers []answer
}

func (bs *batchSpec) run(cfg config) (*result, error) {
	in := gridInputs(bs.dims)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Set-ups and idle reweights are timed half before the window and half
	// after it, so that a slow stretch of the host meets at most half.
	ix, _, setups, err := setUp(cfg, in, batchSetups/2, tr, nil)
	if err != nil {
		return nil, err
	}
	rw, err := idleReweighs(ix, in, tr, idleCalls/2)
	if err != nil {
		return nil, err
	}
	plain, err := bs.window(cfg, in, ix, nil)
	if err != nil {
		return nil, err
	}
	_, _, more, err := setUp(cfg, in, batchSetups-batchSetups/2, tr, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	if more, err = idleReweighs(ix, in, tr, idleCalls-idleCalls/2); err != nil {
		return nil, err
	}
	rw = append(rw, more...)

	res := &result{attempted: len(plain.lat)}
	e2e := plain.endToEnd(bs, rw)
	if res.e2e, err = ordered(append(e2e, setupMetric(setups, "sepsp.Build")), endToEnd, nil); err != nil {
		return nil, err
	}
	res.latency = plain.latencies(bs)
	answers := plain.answers
	if cfg.trace {
		traced, err := bs.window(cfg, in, ix, tr)
		if err != nil {
			return nil, err
		}
		answers = append(answers, traced.answers...)
		lm, err := layerMetrics(cfg, in, ix, tr)
		if err != nil {
			return nil, err
		}
		lm = append(lm,
			metric{name: "manager.rebuild_s", value: rw.median(), unit: "s", n: len(rw), note: "median Manager.Reweight with nothing else running"},
			metric{name: "requests.ok", value: float64(len(traced.lat)), unit: "count", note: "calls"})
		lm = append(lm, res.latency...)
		lm = append(lm, overhead(append(res.latency, e2e...), append(traced.latencies(bs), traced.endToEnd(bs, rw)...))...)
		if res.layer, err = ordered(lm, perLayer, absentOffline); err != nil {
			return nil, err
		}
		printSpans(tr)
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	fmt.Printf("requests: attempted=%d ok=%d (calls of %d sources each)\n", len(plain.lat), len(plain.lat), bs.wave)
	res.checked, res.wrong = newChecker(in.sets...).checkAll(answers)
	return res, nil
}

// window calls Index.SourcesBatchedContext back to back: batchWarmup
// calls, then for cfg.seconds. Sources run through a seeded permutation of
// all vertices, so each call's sources are distinct; one seeded lane per
// call, for the first checkSample calls, is kept for checking.
func (bs *batchSpec) window(cfg config, in *inputs, ix *sepsp.Index, tr *tracer) (*batchWindow, error) {
	n := in.n()
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(n)
	next := 0
	wave := func() []int {
		out := make([]int, bs.wave)
		for j := range out {
			out[j] = order[next%n]
			next++
		}
		return out
	}
	ctx := context.Background()
	root := tr.begin("window", -1, -1)
	defer tr.end(root)
	for k := 0; k < batchWarmup; k++ {
		if _, err := ix.SourcesBatchedContext(ctx, wave()); err != nil {
			return nil, fmt.Errorf("warm-up wave: %w", err)
		}
	}
	w := &batchWindow{}
	limit := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	for time.Since(start) < limit {
		srcs := wave()
		id := tr.begin("Index.SourcesBatchedContext", root, int64(len(w.lat)))
		t0 := time.Now()
		rows, err := ix.SourcesBatchedContext(ctx, srcs)
		w.lat = append(w.lat, float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("wave: %w", err)
		}
		if len(w.answers) < checkSample {
			lane := rng.Intn(len(srcs))
			w.answers = append(w.answers, answer{src: srcs[lane], weights: 0, dist: rows[lane]})
		}
	}
	w.elapsed = time.Since(start)
	return w, nil
}

// endToEnd: for an offline caller a request is one call of bs.wave
// sources.
func (w *batchWindow) endToEnd(bs *batchSpec, rw sample) []metric {
	calls := float64(len(w.lat)) / w.elapsed.Seconds()
	return []metric{
		{name: "goodput_rps", value: calls, unit: "1/s", n: len(w.lat), note: "calls answered per second"},
		{name: "sources_per_s", value: calls * float64(bs.wave), unit: "1/s", n: len(w.lat) * bs.wave},
		{name: "reweight_s", value: rw.median(), unit: "s", n: len(rw), note: "Manager.Reweight with nothing else running"},
	}
}

func (w *batchWindow) latencies(bs *batchSpec) []metric {
	return latencyMetrics(w.lat, fmt.Sprintf("per call of %d sources", bs.wave))
}

// idleReweighs times k Manager.Reweight calls on a fresh manager over ix
// with nothing else running, alternating the weight sets, and returns
// their durations in seconds.
func idleReweighs(ix *sepsp.Index, in *inputs, tr *tracer, k int) (sample, error) {
	mgr := sepsp.NewManager(ix, nil)
	var out sample
	for c := 0; c < k; c++ {
		el, err := tr.timed("Manager.Reweight", -1, func() error {
			_, err := mgr.Reweight(context.Background(), in.public[1-c%2])
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("reweight: %w", err)
		}
		out = append(out, el)
	}
	return out, nil
}

// absentOffline says why the serving-stack metrics are missing on an
// offline workload.
var absentOffline = map[string]string{
	"admission.":               "no Server on this workload",
	"server.":                  "no Server on this workload",
	"distcache.":               "no Server on this workload",
	"manager.swaps":            "no swap happens under load on this workload",
	"manager.post_swap_p99_ms": "no swap happens under load on this workload",
	"loadgen.":                 "closed loop: no schedule to fall behind",
	"requests.":                "no Server on this workload; any error fails the run",
}
