package exp

import (
	"fmt"
	"sort"

	"sepsp/internal/obs"
	"sepsp/internal/pram"
)

// Result is the output of one experiment: tables plus optional free-form
// text blocks (figure renderings).
type Result struct {
	Tables []*Table `json:"tables"`
	Text   []string `json:"text,omitempty"`
}

// Runner executes one experiment. sink (nil: disabled) receives phase
// traces and metrics from instrumentation-aware experiments; the others
// ignore it.
type Runner func(ex *pram.Executor, scale int, sink *obs.Sink) (*Result, error)

var registry = map[string]Runner{
	"T1-prep": func(ex *pram.Executor, scale int, sink *obs.Sink) (*Result, error) {
		t, err := Table1Prep(ex, scale, sink)
		return oneTable(t), err
	},
	"T1-query": func(ex *pram.Executor, scale int, sink *obs.Sink) (*Result, error) {
		t, err := Table1Query(ex, scale, sink)
		return oneTable(t), err
	},
	"F1": func(*pram.Executor, int, *obs.Sink) (*Result, error) {
		t, text, err := Figure1()
		if err != nil {
			return nil, err
		}
		return &Result{Tables: []*Table{t}, Text: []string{text}}, nil
	},
	"F2": func(*pram.Executor, int, *obs.Sink) (*Result, error) {
		t, text, err := Figure2()
		if err != nil {
			return nil, err
		}
		return &Result{Tables: []*Table{t}, Text: []string{text}}, nil
	},
	"E-diam": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := DiameterExperiment(ex)
		return oneTable(t), err
	},
	"E-esize": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := AugmentSizeExperiment(ex, scale)
		return oneTable(t), err
	},
	"E-alg41v43": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := AlgorithmComparison(ex, scale)
		return oneTable(t), err
	},
	"E-sched": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := ScheduleExperiment(ex, scale)
		return oneTable(t), err
	},
	"E-phases": func(ex *pram.Executor, scale int, sink *obs.Sink) (*Result, error) {
		return PhaseBreakdownExperiment(ex, scale, sink)
	},
	"E-seq": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := SequentialCrossover(ex, scale)
		return oneTable(t), err
	},
	"E-reach": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := ReachabilityExperiment(ex, scale)
		return oneTable(t), err
	},
	"E-planar": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := PlanarExperiment(ex, scale)
		return oneTable(t), err
	},
	"E-speedup": func(_ *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := SpeedupExperiment(scale)
		return oneTable(t), err
	},
	"E-negcyc": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := NegativeCycleExperiment(ex)
		return oneTable(t), err
	},
	"E-semiring": func(*pram.Executor, int, *obs.Sink) (*Result, error) {
		t, err := SemiringExperiment()
		return oneTable(t), err
	},
	"E-ineq": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := ConstraintsExperiment(ex, scale)
		return oneTable(t), err
	},
	"E-pairs": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := PairsExperiment(ex, scale)
		return oneTable(t), err
	},
	"E-finders": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		t, err := FinderAblation(ex, scale)
		return oneTable(t), err
	},
	"E-build": func(ex *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		return BuildExperiment(ex, scale)
	},
	"E-query": func(_ *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		return QueryExperiment(scale)
	},
	"E-cache": func(_ *pram.Executor, scale int, _ *obs.Sink) (*Result, error) {
		return CacheExperiment(scale)
	},
}

// gates maps experiment ids to regression gates: a gate compares the
// machine-portable invariants of a fresh result against a recorded baseline
// (cmd/benchtab -gate) and returns the violations.
var gates = map[string]func(curr, base *Result) []string{
	"E-build": GateBuild,
	"E-query": GateQuery,
	"E-cache": GateCache,
}

// Gate compares a fresh result for id against a recorded baseline. The
// second return is false when no gate is registered for id.
func Gate(id string, curr, base *Result) ([]string, bool) {
	g, ok := gates[id]
	if !ok {
		return nil, false
	}
	return g(curr, base), true
}

func oneTable(t *Table) *Result {
	if t == nil {
		return nil
	}
	return &Result{Tables: []*Table{t}}
}

// IDs returns all experiment ids in stable order.
func IDs() []string {
	var ids []string
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id. sink may be nil.
func Run(id string, ex *pram.Executor, scale int, sink *obs.Sink) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	return r(ex, scale, sink)
}
