package exp

import (
	"strings"
	"testing"
)

// fakeQueryResult builds a minimal E-query result shaped like
// QueryExperiment's output, for gate tests.
func fakeQueryResult(optWork, speedup string) *Result {
	return &Result{Tables: []*Table{
		{
			ID:     "E-query-sssp",
			Header: []string{"n", "path", "time/query", "work", "allocs", "speedup"},
			Rows: [][]string{
				{"1024", "reference", "110µs", "99718", "1", "-"},
				{"1024", "optimized", "80µs", "99718", "1", "1.38"},
				{"4096", "reference", "630µs", "463554", "1", "-"},
				{"4096", "optimized", "470µs", optWork, "1", speedup},
			},
		},
		{
			ID:     "E-query-wave",
			Header: []string{"n", "k", "P", "time/wave", "work", "speedup"},
			Rows: [][]string{
				{"4096", "32", "1", "20ms", "14833728", "-"},
				{"4096", "32", "4", "10ms", "14833728", "2.00"},
			},
		},
	}}
}

// TestGateQuery: a clean run passes; optimized work that differs from the
// reference path's fails even when the baseline recorded the same drift;
// a speedup under the floor fails.
func TestGateQuery(t *testing.T) {
	for _, tc := range []struct {
		name           string
		curr, base     *Result
		wantViolations string // substring of the joined violations, "" for none
	}{
		{"clean", fakeQueryResult("463554", "1.35"), fakeQueryResult("463554", "1.40"), ""},
		{"optimized != reference", fakeQueryResult("463000", "1.35"), fakeQueryResult("463000", "1.35"), "optimized work 463000 != reference work 463554"},
		{"speedup floor", fakeQueryResult("463554", "1.10"), fakeQueryResult("463554", "1.40"), "speedup 1.10 below floor"},
	} {
		viol := strings.Join(GateQuery(tc.curr, tc.base), "; ")
		if tc.wantViolations == "" && viol != "" || !strings.Contains(viol, tc.wantViolations) {
			t.Errorf("%s: violations %q, want %q", tc.name, viol, tc.wantViolations)
		}
	}
}
