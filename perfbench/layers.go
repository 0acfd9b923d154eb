package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"sepsp"
	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// endToEnd lists every end-to-end metric, in the order an untraced run
// prints them, with its unit.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"goodput_rps", "1/s"}, {"sources_per_s", "1/s"}, {"reweight_s", "s"},
}

// perLayer lists every per-layer metric, in the order a traced run prints
// them, with its unit.
var perLayer = []struct{ name, unit string }{
	{"separator.build_s", "s"}, {"separator.height", "count"}, {"separator.max_sep", "count"},
	{"augment.build_s", "s"}, {"augment.work", "count"}, {"augment.triples_per_s", "1/s"}, {"augment.shortcuts", "count"},
	{"core.sssp_ms", "ms"}, {"core.wave1_ms", "ms"}, {"core.wave32_ms_per_source", "ms"},
	{"core.work_per_source", "count"}, {"core.avoided_frac", "frac"},
	{"pram.speedup", "x"}, {"pram.imbalance", "ratio"},
	{"admission.queue_wait_p50_ms", "ms"}, {"admission.queue_wait_p99_ms", "ms"}, {"admission.shed_frac", "frac"},
	{"admission.default_shed_frac", "frac"}, {"admission.limit_mean", "count"}, {"admission.evicted", "count"},
	{"server.wave_size_mean", "count"}, {"server.wave_size_p99", "count"},
	{"server.compute_p50_ms", "ms"}, {"server.compute_p99_ms", "ms"},
	{"distcache.hit_frac", "frac"}, {"distcache.shared", "count"}, {"distcache.evictions", "count"},
	{"distcache.resident_bytes", "B"},
	{"manager.rebuild_s", "s"}, {"manager.swaps", "count"}, {"manager.post_swap_p99_ms", "ms"},
	{"loadgen.lateness_p99_ms", "ms"}, {"loadgen.lateness_max_ms", "ms"},
	{"requests.ok", "count"}, {"requests.overloaded", "count"}, {"requests.queue_timeout", "count"},
	{"requests.other_error", "count"},
	{"requests.latency_p50_ms", "ms"}, {"requests.latency_p90_ms", "ms"}, {"requests.latency_p99_ms", "ms"},
	{"trace.overhead_p50_frac", "frac"}, {"trace.overhead_p90_frac", "frac"}, {"trace.overhead_goodput_frac", "frac"},
}

// ordered returns ms in the order of want, each missing one as 0 with the
// note absent gives for the longest matching name prefix. A metric not in
// want, or with another unit, is a bug in the benchmark.
func ordered(ms []metric, want []struct{ name, unit string }, absent map[string]string) ([]metric, error) {
	by := map[string]metric{}
	for _, m := range ms {
		by[m.name] = m
	}
	out := make([]metric, 0, len(want))
	for _, w := range want {
		m, ok := by[w.name]
		if !ok {
			m = metric{name: w.name, unit: w.unit, note: "not measured on this workload"}
			best := ""
			for prefix, why := range absent {
				if strings.HasPrefix(w.name, prefix) && len(prefix) > len(best) {
					best, m.note = prefix, why
				}
			}
		}
		if m.unit != w.unit {
			return nil, fmt.Errorf("metric %s has unit %q, want %q", m.name, m.unit, w.unit)
		}
		delete(by, w.name)
		out = append(out, m)
	}
	for name := range by {
		return nil, fmt.Errorf("metric %s is not in the benchmark's list", name)
	}
	return out, nil
}

const (
	layerReps  = 3  // direct separator.Build and core.NewEngine calls; the median is reported
	layerWaves = 5  // k=32 waves timed per executor
	layerK     = 32 // lanes of the wide wave
)

// layerMetrics times direct calls into each layer on the workload's own
// graph and sources: separator.Build, core.NewEngine (the augment closure
// and the schedule), Index.SSSPContext, and k=1 and k=32 batched waves,
// the last on executors of 1 and cfg.procs workers. Counted quantities
// must equal the ones the index's own builds counted.
func layerMetrics(cfg config, in *inputs, ix *sepsp.Index, tr *tracer) ([]metric, error) {
	g := in.sets[0]
	want := countsOf(ix.Stats())
	root := tr.begin("layers", -1, -1)
	defer tr.end(root)

	sk := graph.NewSkeleton(g)
	var tree *separator.Tree
	var sepTimes sample
	for r := 0; r < layerReps; r++ {
		el, err := tr.timed("separator.Build", root, func() error {
			var err error
			tree, err = separator.Build(sk, &separator.CoordinateFinder{Coord: in.coords}, separator.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("separator.Build: %w", err)
		}
		sepTimes = append(sepTimes, el)
	}
	if h, s := int64(tree.Height), int64(tree.MaxSeparatorSize()); h != want.height || s != want.maxSep {
		return nil, fmt.Errorf("separator.Build counted height %d, max separator %d; the index counted %d, %d", h, s, want.height, want.maxSep)
	}

	exP := pram.NewExecutor(cfg.procs)
	var eng *core.Engine
	var augTimes sample
	for r := 0; r < layerReps; r++ {
		st := &pram.Stats{}
		el, err := tr.timed("core.NewEngine", root, func() error {
			var err error
			eng, err = core.NewEngine(g, tree, core.Config{Ex: exP, PrepStats: st})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("core.NewEngine: %w", err)
		}
		augTimes = append(augTimes, el)
		got := counts{st.Work(), int64(len(eng.Augmentation().Edges)), want.height, want.maxSep, eng.Schedule().WorkPerSource()}
		if got != want {
			return nil, fmt.Errorf("core.NewEngine counted %+v; the index counted %+v", got, want)
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	srcs := rng.Perm(in.n())[:layerK]
	ctx := context.Background()
	var sssp, wave1 sample
	for _, s := range srcs {
		el, err := tr.timed("Index.SSSPContext", root, func() error {
			_, err := ix.SSSPContext(ctx, s)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("Index.SSSPContext: %w", err)
		}
		sssp = append(sssp, el*1e3)
		el, err = tr.timed("Index.SourcesBatchedContext/k=1", root, func() error {
			_, err := ix.SourcesBatchedContext(ctx, []int{s})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("Index.SourcesBatchedContext: %w", err)
		}
		wave1 = append(wave1, el*1e3)
	}
	var wide sample
	for r := 0; r < layerWaves; r++ {
		el, err := tr.timed(fmt.Sprintf("Index.SourcesBatchedContext/k=%d", layerK), root, func() error {
			_, err := ix.SourcesBatchedContext(ctx, srcs)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("Index.SourcesBatchedContext: %w", err)
		}
		wide = append(wide, el*1e3/layerK)
	}

	// Counted wave work, and the same wave on 1 worker and on procs.
	st := &pram.Stats{}
	if _, err := eng.SourcesBatchedContext(ctx, srcs, st); err != nil {
		return nil, fmt.Errorf("core wave: %w", err)
	}
	avoided := float64(st.SkippedWork()) / float64(st.Work()+st.SkippedWork())
	waveOn := func(ex *pram.Executor) (sample, error) {
		e := core.NewEngineFromParts(g, tree, eng.Augmentation(), ex)
		var s sample
		for r := 0; r < layerWaves; r++ {
			el, err := tr.timed(fmt.Sprintf("core.SourcesBatchedContext/P=%d", ex.P()), root, func() error {
				_, err := e.SourcesBatchedContext(ctx, srcs, nil)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("core wave on %d workers: %w", ex.P(), err)
			}
			s = append(s, el)
		}
		return s, nil
	}
	one, err := waveOn(pram.NewExecutor(1))
	if err != nil {
		return nil, err
	}
	exWave := pram.NewExecutor(cfg.procs)
	many, err := waveOn(exWave)
	if err != nil {
		return nil, err
	}
	_, _, imbalance := exWave.LoadStats()

	augS := augTimes.median()
	return []metric{
		{name: "separator.build_s", value: sepTimes.median(), unit: "s", n: len(sepTimes)},
		{name: "separator.height", value: float64(want.height), unit: "count", note: "d_G, counted"},
		{name: "separator.max_sep", value: float64(want.maxSep), unit: "count", note: "largest |S(t)|, counted"},
		{name: "augment.build_s", value: augS, unit: "s", n: len(augTimes), note: "core.NewEngine: E+ closure and schedule"},
		{name: "augment.work", value: float64(want.prepWork), unit: "count", note: "counted min-plus triples"},
		{name: "augment.triples_per_s", value: float64(want.prepWork) / augS, unit: "1/s", n: len(augTimes)},
		{name: "augment.shortcuts", value: float64(want.shortcuts), unit: "count", note: "|E+|, counted"},
		{name: "core.sssp_ms", value: sssp.median(), unit: "ms", n: len(sssp), note: "Index.SSSPContext"},
		{name: "core.wave1_ms", value: wave1.median(), unit: "ms", n: len(wave1), note: "Index.SourcesBatchedContext, k=1"},
		{name: "core.wave32_ms_per_source", value: wide.median(), unit: "ms", n: len(wide), note: "Index.SourcesBatchedContext, k=32"},
		{name: "core.work_per_source", value: float64(want.workPerSource), unit: "count", note: "static schedule relaxations, counted"},
		{name: "core.avoided_frac", value: avoided, unit: "frac", note: "pruned share of the k=32 wave's schedule, counted"},
		{name: "pram.speedup", value: one.median() / many.median(), unit: "x", n: len(many), note: fmt.Sprintf("k=32 wave, 1 worker vs %d", cfg.procs)},
		{name: "pram.imbalance", value: imbalance, unit: "ratio", note: fmt.Sprintf("max/mean busy iterations over %d workers", cfg.procs)},
	}, nil
}
