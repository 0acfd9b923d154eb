package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadCoords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coords")
	if err := os.WriteFile(path, []byte("0 0\n\n0 1\n1 0\n1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	coords, err := readCoords(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(coords) != 4 || coords[2][0] != 1 || coords[2][1] != 0 {
		t.Fatalf("coords=%v", coords)
	}
	if _, err := readCoords(path, 5); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCoords(bad, 1); err == nil {
		t.Fatal("non-numeric coords accepted")
	}
	if _, err := readCoords(filepath.Join(dir, "missing"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParsePairs(t *testing.T) {
	pairs, err := parsePairs("1:2, 3:4")
	if err != nil || len(pairs) != 2 || pairs[1] != [2]int{3, 4} {
		t.Fatalf("pairs=%v err=%v", pairs, err)
	}
	for _, bad := range []string{"", "1", "1:2:3x", "a:b"} {
		if _, err := parsePairs(bad); err == nil {
			t.Fatalf("bad pairs %q accepted", bad)
		}
	}
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestStatsGolden locks the stats command's per-level and per-phase
// breakdown output. Everything printed is counted PRAM cost (deterministic
// for a fixed graph, decomposition, and algorithm), so a byte-exact golden
// comparison is safe.
func TestStatsGolden(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords", "stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	golden, err := os.ReadFile("testdata/stats.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("stats output diverged from testdata/stats.golden:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
}

// TestTraceAndMetricsFlags is the CLI acceptance check: an sssp run with
// -trace and -metrics produces loadable JSON with a span for every
// preprocessing level and every query phase, and strict Prometheus text
// whose per-phase work counters sum to the schedule total.
func TestTraceAndMetricsFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	metricsPath := filepath.Join(dir, "m.prom")
	out, errOut, code := runCLI(t,
		"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
		"-trace", tracePath, "-metrics", metricsPath, "sssp", "-src", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.HasPrefix(out, "0 0\n") {
		t.Fatalf("sssp output does not start with source distance: %q", out[:min(len(out), 40)])
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	levels := map[float64]bool{}
	phases := 0
	for _, ev := range trace.TraceEvents {
		switch ev.Name {
		case "prep.level":
			levels[ev.Args["level"].(float64)] = true
		case "query.phase":
			phases++
		}
	}
	// grid6 has tree height 5 (see stats.golden).
	for L := 0; L <= 5; L++ {
		if !levels[float64(L)] {
			t.Fatalf("trace missing prep.level span for level %d", L)
		}
	}
	if phases == 0 {
		t.Fatal("trace has no query.phase spans")
	}

	raw, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	// -metrics writes the Telemetry's Prometheus text, held to the
	// serve drill's strict exposition parser.
	families := parsePrometheus(t, string(raw))
	for _, fam := range []string{"sepsp_prep_work_total", "sepsp_query_relaxations_total", "sepsp_query_phases_total"} {
		if families[fam] != "counter" {
			t.Fatalf("-metrics output has no %s counter family: %v", fam, families)
		}
	}
	var qw float64
	for _, kind := range []string{"ell-pre", "same-down", "desc", "asc", "same-up", "ell-post"} {
		v, ok := metricValue(string(raw), `sepsp_query_relaxations_total{kind="`+kind+`"}`)
		if !ok {
			t.Fatalf("-metrics output has no %s relaxation series", kind)
		}
		qw += v
	}
	// Every phase runs, so the executed relaxations are the static
	// per-source cost (see stats.golden).
	if qw != 2172 {
		t.Fatalf("sepsp_query_relaxations_total sums to %g, want 2172", qw)
	}
	if got, _ := metricValue(string(raw), "sepsp_query_phases_total"); got != float64(phases) {
		t.Fatalf("sepsp_query_phases_total %g, trace has %d phase spans", got, phases)
	}
}

// TestPprofFlag writes CPU and heap profiles next to the trace.
func TestPprofFlag(t *testing.T) {
	dir := t.TempDir()
	_, errOut, code := runCLI(t,
		"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
		"-pprof", dir, "sssp", "-src", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestRunBadArgs: usage errors exit 2, runtime errors exit 1.
func TestRunBadArgs(t *testing.T) {
	if _, _, code := runCLI(t, "stats"); code != 2 {
		t.Fatalf("missing -graph: exit %d, want 2", code)
	}
	if _, errOut, code := runCLI(t, "-graph", "testdata/missing.txt", "stats"); code != 1 || errOut == "" {
		t.Fatalf("missing file: exit %d stderr %q", code, errOut)
	}
	if _, _, code := runCLI(t, "-graph", "testdata/grid6.txt", "frobnicate"); code != 1 {
		t.Fatalf("unknown command: exit %d, want 1", code)
	}
}

// TestServeCommand drives the serve subcommand's synthetic load end to end
// on the checked-in 6x6 grid and checks the summary: every request served,
// none failed, and the wave metrics account for the full load.
func TestServeCommand(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
		"serve", "-clients", "4", "-requests", "32", "-maxbatch", "4", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{
		"serve: 32 requests, 4 clients\n",
		"served=32 faulted=0",
		"waves=",
		"throughput=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("serve output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "chaos:") {
		t.Fatalf("chaos summary printed without -chaos:\n%s", out)
	}
}

// TestServeChaosCommand runs the serve fault drill: deterministic injection
// with the baseline fallback armed, so the run exits 0 and prints the chaos
// accounting lines.
func TestServeChaosCommand(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
		"serve", "-clients", "4", "-requests", "64", "-timeout", "250ms",
		"-chaos", "15", "-chaosseed", "9")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{
		"serve: 64 requests, 4 clients\n",
		"chaos: injected panics=",
		"fallbackEngaged=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("serve -chaos output missing %q:\n%s", want, out)
		}
	}
}

// TestServeChaosBadRate checks the permille bound on -chaos.
func TestServeChaosBadRate(t *testing.T) {
	_, errOut, code := runCLI(t,
		"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
		"serve", "-chaos", "1001")
	if code == 0 {
		t.Fatal("-chaos 1001 accepted")
	}
	if !strings.Contains(errOut, "permille") {
		t.Fatalf("stderr missing permille diagnostic: %s", errOut)
	}
}

// TestServeBadFlags checks the serve subcommand surfaces server option
// validation (negative MaxBatch) as a nonzero exit.
func TestServeBadFlags(t *testing.T) {
	_, errOut, code := runCLI(t,
		"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
		"serve", "-maxbatch", "-1")
	if code == 0 {
		t.Fatal("negative -maxbatch accepted")
	}
	if !strings.Contains(errOut, "invalid options") {
		t.Fatalf("stderr = %q, want mention of invalid options", errOut)
	}
}
