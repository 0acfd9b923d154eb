package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func runTab(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListFlag(t *testing.T) {
	out, _, code := runTab(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"T1-prep", "T1-query", "E-phases"} {
		if !strings.Contains(out, id+"\n") {
			t.Fatalf("-list missing %s:\n%s", id, out)
		}
	}
}

// TestJSONOutput: -json emits one parseable NDJSON record per experiment,
// carrying the experiment id and its tables.
func TestJSONOutput(t *testing.T) {
	out, errOut, code := runTab(t, "-json", "-exp", "F1,E-semiring")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 NDJSON records, got %d:\n%s", len(lines), out)
	}
	wantIDs := []string{"F1", "E-semiring"}
	for i, line := range lines {
		var rec struct {
			ID     string `json:"id"`
			Tables []struct {
				ID     string     `json:"id"`
				Header []string   `json:"header"`
				Rows   [][]string `json:"rows"`
			} `json:"tables"`
			Elapsed string `json:"elapsed"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not valid JSON: %v\n%s", i, err, line)
		}
		if rec.ID != wantIDs[i] {
			t.Fatalf("record %d id %q, want %q", i, rec.ID, wantIDs[i])
		}
		if len(rec.Tables) == 0 || len(rec.Tables[0].Rows) == 0 {
			t.Fatalf("record %d has no table rows", i)
		}
		if rec.Elapsed == "" {
			t.Fatalf("record %d missing elapsed", i)
		}
	}
}

// TestTraceAndMetricsExport: an instrumentation-aware experiment populates
// the sink; the trace export is valid JSON and the metrics export
// Prometheus text with per-level work.
func TestTraceAndMetricsExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	metricsPath := filepath.Join(dir, "m.prom")
	_, errOut, code := runTab(t, "-exp", "E-phases", "-workers", "1",
		"-trace", tracePath, "-metrics", metricsPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("-trace output invalid: %v", err)
	}
	levels := 0
	for _, ev := range trace.TraceEvents {
		if ev.Name == "prep.level" {
			levels++
		}
	}
	if levels == 0 {
		t.Fatal("trace has no prep.level spans")
	}

	raw, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var prepWork float64
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, `sepsp_prep_work_total{level="`) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("-metrics sample %q: %v", line, err)
		}
		prepWork += v
	}
	if prepWork == 0 {
		t.Fatal("metrics export has no per-level prep work")
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	_, errOut, code := runTab(t, "-exp", "no-such-exp")
	if code != 1 || !strings.Contains(errOut, "no-such-exp") {
		t.Fatalf("exit %d stderr %q", code, errOut)
	}
}
