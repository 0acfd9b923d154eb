package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// metricValue extracts one sample value from a Prometheus text exposition,
// matching the metric name and (in any order-insensitive way) the exact
// label set as printed. Returns ok=false when the series is absent.
func metricValue(metrics, series string) (float64, bool) {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestOverloadDrill runs the real `serve -overload` drill end to end with
// the telemetry endpoint mounted, scrapes /metrics over real HTTP once the
// rebuild breaker has completed its open→recover cycle, and verifies the
// acceptance criteria against the admission telemetry families: the
// admission window stayed at -inflight, zero interactive-priority
// brownouts while batch-priority brownouts happened, and the rebuild
// breaker both opened and closed again. `make overload-drill` runs exactly
// this test.
func TestOverloadDrill(t *testing.T) {
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
			"serve", "-overload", "-requests", "400", "-inflight", "8",
			"-listen", "127.0.0.1:0", "-linger", "60s", "-log-level", "warn",
		}, &stdout, &stderr)
	}()

	addrRe := regexp.MustCompile(`telemetry: listening on (http://\S+)`)
	var base string
	deadline := time.Now().Add(60 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no discovery line on stderr within deadline:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The breaker's close transition is the drill's final phase event: once
	// it shows in /metrics the whole drill has run and the endpoint is in
	// its linger window.
	var metrics string
	closedSeries := `sepsp_breaker_transitions_total{breaker="rebuild",to="closed"}`
	for {
		if time.Now().After(deadline) {
			t.Fatalf("drill never completed its breaker cycle\nmetrics:\n%s\nstderr:\n%s",
				metrics, stderr.String())
		}
		resp, err := httpGetBody(base + "/metrics")
		if err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		metrics = resp
		if v, ok := metricValue(metrics, closedSeries); ok && v >= 1 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	families := parsePrometheus(t, metrics)
	for _, want := range []string{
		"sepsp_admission_shed_total",
		"sepsp_admission_brownout_total",
		"sepsp_admission_limit",
		"sepsp_admission_inflight",
		"sepsp_server_brownout_active",
		"sepsp_breaker_state",
		"sepsp_breaker_transitions_total",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("exposition missing family %q", want)
		}
	}

	// The window is -inflight 8 and sheds never shrink it.
	if v, ok := metricValue(metrics, `sepsp_admission_limit{server="0"}`); !ok {
		t.Error("sepsp_admission_limit sample missing")
	} else if v != 8 {
		t.Errorf("sepsp_admission_limit = %g; want 8 (-inflight)", v)
	}

	// Priority contract: interactive queries are never browned out; batch
	// queries were answered degraded-but-exact under sustained shedding.
	if v, ok := metricValue(metrics, `sepsp_admission_brownout_total{priority="interactive"}`); !ok || v != 0 {
		t.Errorf("interactive brownouts = %g (present=%v); want exactly 0", v, ok)
	}
	if v, ok := metricValue(metrics, `sepsp_admission_brownout_total{priority="batch"}`); !ok || v == 0 {
		t.Errorf("batch brownouts = %g (present=%v); want > 0", v, ok)
	}
	if v, ok := metricValue(metrics, `sepsp_admission_shed_total{priority="interactive"}`); !ok || v == 0 {
		t.Errorf("interactive sheds = %g (present=%v); want > 0 under 4x overload", v, ok)
	}

	// Breaker cycle: opened under injected rebuild failures, recovered via
	// a half-open probe, and sits closed (state gauge 0) now.
	if v, ok := metricValue(metrics, `sepsp_breaker_transitions_total{breaker="rebuild",to="open"}`); !ok || v < 1 {
		t.Errorf("rebuild breaker open transitions = %g (present=%v); want >= 1", v, ok)
	}
	if v, ok := metricValue(metrics, `sepsp_breaker_state{server="0",breaker="rebuild"}`); !ok || v != 0 {
		t.Errorf("rebuild breaker state = %g (present=%v); want 0 (closed) after recovery", v, ok)
	}

	// SIGINT ends the linger window; the drill must exit 0 (its own phase
	// invariants all held) and print the stable summary lines.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("overload drill exited %d\nstdout:\n%s\nstderr:\n%s",
				code, stdout.String(), stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drill did not shut down within 20s of SIGINT")
	}
	out := stdout.String()
	for _, want := range []string{
		"window: inflight=8",
		"brownouts=",
		"class interactive: ok=",
		"breaker: failures=3 opened=true blocked=true recovered=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// httpGetBody fetches a URL and returns its body, failing on non-200.
func httpGetBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}
