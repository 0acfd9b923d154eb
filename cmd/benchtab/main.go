// Command benchtab regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// recorded results).
//
// Usage:
//
//	benchtab [-exp id[,id...]] [-scale N] [-workers P] [-json]
//	         [-gate baseline.json] [-trace out.json] [-metrics out.prom]
//
// With no -exp flag, all experiments run in order. -json switches the
// output to one JSON object per experiment (NDJSON), for scripting.
// -gate re-runs the experiments recorded in an NDJSON baseline file (e.g.
// BENCH_build.json, itself produced by -json) and exits non-zero if any
// registered regression gate reports a violation — counted work drift,
// allocation regressions, kernel speedups under their floors.
// -trace and -metrics attach an observability sink to instrumentation-aware
// experiments (T1-prep, T1-query, E-phases) and export what was collected:
// Chrome trace_event JSON and Prometheus text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"sepsp/internal/exp"
	"sepsp/internal/obs"
	"sepsp/internal/pram"
)

// experimentOutput is one -json record.
type experimentOutput struct {
	ID      string       `json:"id"`
	Tables  []*exp.Table `json:"tables"`
	Text    []string     `json:"text,omitempty"`
	Elapsed string       `json:"elapsed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag     = fs.String("exp", "", "comma-separated experiment ids (default: all); use -list to enumerate")
		scale       = fs.Int("scale", 1, "problem-size multiplier")
		workers     = fs.Int("workers", -1, "worker goroutines (PRAM processors); -1 = GOMAXPROCS, 1 = sequential")
		list        = fs.Bool("list", false, "list experiment ids and exit")
		jsonOut     = fs.Bool("json", false, "emit one JSON object per experiment (NDJSON) instead of rendered tables")
		gatePath    = fs.String("gate", "", "NDJSON baseline file (e.g. BENCH_build.json): re-run its experiments and fail on gate violations")
		tracePath   = fs.String("trace", "", "write Chrome trace_event JSON collected across the run here")
		metricsPath = fs.String("metrics", "", "write the metrics collected across the run here (Prometheus text)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, id := range exp.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	ids := exp.IDs()
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
	}
	var baseline map[string]*exp.Result
	if *gatePath != "" {
		var err error
		baseline, err = loadBaseline(*gatePath)
		if err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 2
		}
		if *expFlag == "" {
			// Gate exactly what the baseline recorded.
			ids = ids[:0]
			for id := range baseline {
				ids = append(ids, id)
			}
			sort.Strings(ids)
		}
	}
	var sink *obs.Sink
	if *tracePath != "" || *metricsPath != "" {
		sink = &obs.Sink{Metrics: obs.NewRegistry()}
		if *tracePath != "" {
			sink.Trace = obs.NewTracer()
		}
	}
	enc := json.NewEncoder(stdout)
	ex := pram.NewExecutor(*workers)
	ok := true
	for _, id := range ids {
		start := time.Now()
		res, err := exp.Run(strings.TrimSpace(id), ex, *scale, sink)
		elapsed := time.Since(start).Round(time.Millisecond)
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", id, err)
			ok = false
			continue
		}
		if base, found := baseline[strings.TrimSpace(id)]; found {
			viol, gated := exp.Gate(strings.TrimSpace(id), res, base)
			switch {
			case !gated:
				fmt.Fprintf(stderr, "gate %s: no gate registered, skipped\n", id)
			case len(viol) > 0:
				for _, v := range viol {
					fmt.Fprintf(stderr, "gate %s: FAIL %s\n", id, v)
				}
				ok = false
			default:
				// With -json the stdout stream is NDJSON for machines; the
				// human-facing gate verdict must not pollute it.
				if *jsonOut {
					fmt.Fprintf(stderr, "gate %s: ok\n", id)
				} else {
					fmt.Fprintf(stdout, "gate %s: ok\n", id)
				}
			}
		}
		if *jsonOut {
			rec := experimentOutput{ID: strings.TrimSpace(id), Tables: res.Tables, Text: res.Text, Elapsed: elapsed.String()}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(stderr, "benchtab:", err)
				return 1
			}
			continue
		}
		for _, t := range res.Tables {
			t.Render(stdout)
		}
		for _, txt := range res.Text {
			fmt.Fprintln(stdout, txt)
		}
		fmt.Fprintf(stdout, "(%s finished in %v)\n\n", id, elapsed)
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, sink.Trace.WriteJSON); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
	}
	if *metricsPath != "" {
		if err := writeFile(*metricsPath, sink.Metrics.WritePrometheus); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// loadBaseline reads an NDJSON baseline file (one experimentOutput per
// line, as written by -json) into per-experiment results.
func loadBaseline(path string) (map[string]*exp.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*exp.Result)
	dec := json.NewDecoder(f)
	for {
		var rec experimentOutput
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", path, err)
		}
		if rec.ID == "" {
			return nil, fmt.Errorf("baseline %s: record without experiment id", path)
		}
		out[rec.ID] = &exp.Result{Tables: rec.Tables, Text: rec.Text}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("baseline %s: no records", path)
	}
	return out, nil
}

func writeFile(path string, emit func(io.Writer) error) error {
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
