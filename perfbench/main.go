// Command perfbench is the repository's benchmark: it runs one workload
// against the sepsp library through its public entry points, checks a
// seeded sample of the answers against baseline Dijkstra, and prints every
// metric by name, with its unit and sample count. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones a user of the library
// sees; with --trace 1 the same workload runs once untraced and once traced
// (spans around every call into a layer, live server telemetry attached),
// and the metrics are the per-layer ones, including the tracing overhead.
// The spans are written to a JSON file at the end (see --spans).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-uniform --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported number. n is how many samples it summarizes (0
// for a count or a single reading); note says how it was measured, or why
// the workload cannot measure it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// result is everything one run reports.
type result struct {
	e2e       []metric
	layer     []metric
	latency   []metric // of the untraced window; per-layer, printed on every run
	attempted int
	failed    int
	checked   int   // answers compared with Dijkstra
	wrong     error // first mismatch, nil when every checked answer agreed
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
	procs    int // GOMAXPROCS and Options.Workers: the CPUs this process may use
}

// errInvalid marks a run whose numbers must not be used (the load
// generator could not keep to its schedule).
var errInvalid = errors.New("invalid run")

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for sources, arrival times and the checked sample")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.spans, "spans", "", "where the traced run writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds))
	}
	if cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", cfg.workload, cfg.seed)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fail(fmt.Errorf("unknown --workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", ")))
	}
	cfg.procs = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.procs)
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("seed %d, %d s measured, GOMAXPROCS=Workers=%d, trace=%v\n", cfg.seed, cfg.seconds, cfg.procs, cfg.trace)

	res, err := w.run(cfg)
	if err != nil {
		fail(err)
	}
	metrics := res.e2e
	if cfg.trace {
		metrics = res.layer
	} else {
		printMetrics("latency", res.latency)
	}
	printMetrics("metric", metrics)
	fmt.Printf("requests attempted=%d failed=%d; %d answers checked against dijkstra\n", res.attempted, res.failed, res.checked)
	if res.wrong != nil {
		fmt.Printf("WRONG ANSWER: %v\n", res.wrong)
	}
	out := map[string]any{
		"correct":   res.wrong == nil && res.checked > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   jsonMetrics(metrics),
	}
	data, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
	if res.wrong != nil || res.checked == 0 {
		os.Exit(1)
	}
}

func printMetrics(label string, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("%s %-30s %14.6g %-6s n=%d", label, m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	code := 1
	if errors.Is(err, errInvalid) {
		code = 2
	}
	os.Exit(code)
}
