package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"sepsp"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file says %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestOrderedFillsAbsentAndRejectsUnknown(t *testing.T) {
	want := []struct{ name, unit string }{{"a.x", "s"}, {"b.y", "count"}, {"b.z", "ms"}}
	got, err := ordered([]metric{{name: "b.z", value: 3, unit: "ms"}, {name: "a.x", value: 1, unit: "s"}}, want,
		map[string]string{"b.": "layer b bypassed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].name != "a.x" || got[1].name != "b.y" || got[2].value != 3 {
		t.Fatalf("ordered = %+v", got)
	}
	if got[1].value != 0 || got[1].note != "layer b bypassed" || got[1].unit != "count" {
		t.Fatalf("absent metric = %+v", got[1])
	}
	if _, err := ordered([]metric{{name: "c", unit: "s"}}, want, nil); err == nil {
		t.Fatal("an unlisted metric was accepted")
	}
	if _, err := ordered([]metric{{name: "a.x", unit: "ms"}}, want, nil); err == nil {
		t.Fatal("a metric with the wrong unit was accepted")
	}
}

// countedLayers picks the counted per-layer metrics, which must repeat
// exactly from run to run.
func countedLayers(ms []metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		switch m.name {
		case "separator.height", "separator.max_sep", "augment.work", "augment.shortcuts", "core.work_per_source":
			out[m.name] = m.value
		}
	}
	return out
}

func TestCountedMetricsRepeatAcrossRuns(t *testing.T) {
	var first map[string]float64
	for _, seed := range []int64{1, 2} {
		cfg := config{seed: seed, procs: 2}
		in := gridInputs([]int{6, 6, 6})
		ix, _, _, err := setUp(cfg, in, 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := layerMetrics(cfg, in, ix, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		got := countedLayers(ms)
		if len(got) != 5 {
			t.Fatalf("counted metrics = %v", got)
		}
		for name, v := range got {
			if v <= 0 {
				t.Errorf("%s = %v, want a positive count", name, v)
			}
		}
		if first == nil {
			first = got
			continue
		}
		for name, v := range got {
			if first[name] != v {
				t.Errorf("%s: %v with seed 1, %v with seed 2", name, first[name], v)
			}
		}
	}
}

func TestServeWindowAnswersAreChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server for several seconds")
	}
	cfg := config{seed: 3, seconds: 1, procs: 2}
	sp := &serveSpec{dims: []int{8, 8}, rate: 200, zipf: 1.1, cacheFrac: 0.25, reweight: 500 * time.Millisecond}
	in := gridInputs(sp.dims)
	_, srv, _, err := setUp(cfg, in, 1, nil, func(ix *sepsp.Index) (*sepsp.Server, error) {
		return sepsp.NewServer(ix, sp.serverOptions(in.n()))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w, err := sp.window(cfg, in, srv, nil, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := w.classCounts()
	if c[classOK] == 0 || c[classOther] != 0 {
		t.Fatalf("request classes %v", c)
	}
	if len(w.reweighs) == 0 {
		t.Fatal("no reweight ran")
	}
	as := w.answers()
	if len(as) == 0 {
		t.Fatal("no answer kept for checking")
	}
	if n, err := newChecker(in.sets...).checkAll(as); err != nil {
		t.Fatalf("answer %d: %v", n, err)
	}
	ms, att, failed := w.endToEnd(cfg)
	if att == 0 || failed != 0 || len(ms) != len(endToEnd)-1 || len(w.latencies()) != 3 {
		t.Fatalf("attempted %d, failed %d, metrics %+v", att, failed, ms)
	}
}
