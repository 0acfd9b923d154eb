package main

import (
	"encoding/json"
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

// TestServeCacheDrill is the result-cache drill: the real serve command with
// the epoch-aware distance cache enabled and the load concentrated on a few
// hot sources, scraped over HTTP. The hit path must dominate (computed
// lanes bounded near the hot-set size thanks to single-flight), /metrics
// must expose the sepsp_cache_* families in strictly parseable Prometheus
// text, /healthz must carry the cache_* fields, and the run summary must
// report the hit rate. `make cache-drill` runs exactly this test.
func TestServeCacheDrill(t *testing.T) {
	const requests, hot = 400, 4
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
			"serve", "-clients", "4", "-requests", strconv.Itoa(requests),
			"-cache-mb", "8", "-hot-sources", strconv.Itoa(hot),
			"-listen", "127.0.0.1:0", "-linger", "60s", "-log-level", "off",
		}, &stdout, &stderr)
	}()

	addrRe := regexp.MustCompile(`telemetry: listening on (http://\S+)`)
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no discovery line on stderr within 30s:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != 200 {
			return "", fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}

	// Scrape until every request of the load has been answered through the
	// cache — hits, misses and shared flights add up to the request count —
	// so the SIGINT below ends the linger window, not the load (the -linger
	// window keeps the endpoint up after the load, so this always settles).
	var metrics, health string
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no cache hits became scrapable\nmetrics:\n%s\nhealthz:\n%s", metrics, health)
		}
		var err error
		if metrics, err = get("/metrics"); err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		if health, err = get("/healthz"); err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		var hz map[string]any
		if err := json.Unmarshal([]byte(health), &hz); err != nil {
			t.Fatalf("/healthz is not valid JSON: %v\n%s", err, health)
		}
		hits, _ := hz["cache_hits"].(float64)
		misses, _ := hz["cache_misses"].(float64)
		shared, _ := hz["cache_shared"].(float64)
		if hits > 0 && hits+misses+shared >= requests {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	families := parsePrometheus(t, metrics)
	for _, want := range []string{
		"sepsp_cache_hits_total",
		"sepsp_cache_misses_total",
		"sepsp_cache_evictions_total",
		"sepsp_cache_bytes_total",
		"sepsp_cache_singleflight_shared_total",
		"sepsp_cache_resident_bytes",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("exposition missing family %q", want)
		}
	}
	var hz map[string]any
	if err := json.Unmarshal([]byte(health), &hz); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache_hits", "cache_misses", "cache_shared", "cache_evictions", "cache_bytes"} {
		if _, ok := hz[key]; !ok {
			t.Errorf("/healthz missing %q:\n%s", key, health)
		}
	}

	// SIGINT ends the linger window; the summary must still be printed.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not shut down within 20s of SIGINT")
	}

	// The summary's cache line is the drill verdict: with the load confined
	// to `hot` sources and single-flight collapsing concurrent misses, the
	// computed-lane count stays near the hot-set size and hits dominate.
	out := stdout.String()
	cacheRe := regexp.MustCompile(`cache: hits=(\d+) misses=(\d+) shared=(\d+) evictions=(\d+) bytes=(\d+) hitRate=`)
	m := cacheRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("summary has no cache line:\n%s", out)
	}
	hits, _ := strconv.Atoi(m[1])
	misses, _ := strconv.Atoi(m[2])
	shared, _ := strconv.Atoi(m[3])
	evictions, _ := strconv.Atoi(m[4])
	if misses < hot {
		t.Errorf("misses = %d, want >= %d (every hot source computes once)", misses, hot)
	}
	if misses > requests/10 {
		t.Errorf("misses = %d for a %d-source hot set — the cache is not absorbing repeats:\n%s", misses, hot, out)
	}
	if hits+shared < requests/2 {
		t.Errorf("hits=%d shared=%d, want most of %d requests answered without computing:\n%s", hits, shared, requests, out)
	}
	if evictions != 0 {
		t.Errorf("evictions = %d under an 8 MiB budget holding %d tiny vectors", evictions, hot)
	}
	if !strings.Contains(out, "served="+strconv.Itoa(requests)) {
		t.Errorf("summary does not show all %d requests served:\n%s", requests, out)
	}
}
