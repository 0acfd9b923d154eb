package core

import (
	"strconv"

	"sepsp/internal/augment"
	"sepsp/internal/obs"
)

// The metric families an engine records into its sink's registry: the
// counted cost of its E+ construction, per tree level (Algorithm 4.1) or
// per iteration (Algorithm 4.3), and of every query it answers, per §3.2
// phase kind. Query counts are per source: a wave of k lanes adds what k
// solo queries would.
const (
	metricPrepWork          = "sepsp_prep_work_total"
	metricPrepRounds        = "sepsp_prep_rounds_total"
	metricPrepContributions = "sepsp_prep_contributions_total"
	metricQueryRelaxations  = "sepsp_query_relaxations_total"
	metricQueryPhases       = "sepsp_query_phases_total"
	metricQueryCancelled    = "sepsp_query_cancelled_total"
)

// queryMetrics are the counters an instrumented engine's queries add to,
// resolved from the registry once when the sink is attached, so a query
// takes no registry lock and builds no series name.
type queryMetrics struct {
	work      map[PhaseKind]*obs.Counter
	phases    *obs.Counter
	cancelled *obs.Counter
}

// newQueryMetrics registers the query families in reg (nil without one):
// every phase kind's series exists from the start, so the exposition's
// shape does not depend on which queries ran.
func newQueryMetrics(reg *obs.Registry) *queryMetrics {
	if reg == nil {
		return nil
	}
	m := &queryMetrics{
		work: make(map[PhaseKind]*obs.Counter, len(PhaseKinds)),
		phases: reg.Counter(metricQueryPhases,
			"Bellman-Ford phases run by index queries, per source.", ""),
		cancelled: reg.Counter(metricQueryCancelled,
			"Index queries abandoned on context cancellation, per source.", ""),
	}
	for _, k := range PhaseKinds {
		m.work[k] = reg.Counter(metricQueryRelaxations,
			"Edge relaxations run by index queries, per source, by schedule phase kind.", `kind="`+string(k)+`"`)
	}
	return m
}

// recordPrep adds the counted cost of one E+ construction to reg (nil: no
// registry), one series per tree level or iteration.
func recordPrep(reg *obs.Registry, res *augment.Result) {
	if reg == nil {
		return
	}
	add := func(label string, st augment.Stage, contributions bool) {
		reg.Counter(metricPrepWork, "Counted PRAM work of E+ constructions, by tree level or iteration.", label).Add(st.Work)
		reg.Counter(metricPrepRounds, "Counted PRAM rounds of E+ constructions, by tree level or iteration.", label).Add(st.Rounds)
		if contributions {
			reg.Counter(metricPrepContributions,
				"E+ pair contributions of E+ constructions before deduplication, by tree level.", label).Add(st.Contributions)
		}
	}
	for L, st := range res.Levels {
		add(`level="`+strconv.Itoa(L)+`"`, st, true)
	}
	for i, st := range res.Iters {
		label := `iter="init"`
		if i > 0 {
			label = `iter="` + strconv.Itoa(i-1) + `"`
		}
		add(label, st, false)
	}
}
