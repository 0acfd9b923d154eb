package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	ivs := [][2]time.Duration{{2 * ms, 5 * ms}, {4 * ms, 6 * ms}, {8 * ms, 20 * ms}, {-3 * ms, 1 * ms}}
	// Clipped to [0, 10]: [0,1] + [2,6] + [8,10] = 1 + 4 + 2.
	if got := covered(ivs, 0, 10*ms); got != 7*ms {
		t.Fatalf("covered = %v, want 7ms", got)
	}
	if got := covered(nil, 0, 10*ms); got != 0 {
		t.Fatalf("covered(nil) = %v, want 0", got)
	}
}

func TestSpanSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	tr.spans = []span{
		{Name: "window", Start: 0, End: 10 * ms, Parent: -1, Req: -1},
		{Name: "call", Start: 1 * ms, End: 4 * ms, Parent: 0, Req: 1},
		{Name: "call", Start: 3 * ms, End: 5 * ms, Parent: 0, Req: 2},
		{Name: "open", Start: 6 * ms, End: -1, Parent: 0, Req: 3}, // never closed: ignored
	}
	got := map[string]spanStat{}
	for _, s := range tr.summary() {
		got[s.Name] = s
	}
	if w := got["window"]; w.Count != 1 || w.Total != 10*ms || w.Self != 6*ms {
		t.Fatalf("window = %+v, want total 10ms, self 6ms", w)
	}
	if c := got["call"]; c.Count != 2 || c.Total != 5*ms || c.Self != 5*ms {
		t.Fatalf("call = %+v, want two spans totalling 5ms", c)
	}
	if _, ok := got["open"]; ok {
		t.Fatal("an unclosed span was summarized")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, -1)
	tr.end(id)
	if _, err := tr.timed("y", id, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tr.summary() != nil {
		t.Fatal("nil tracer summarized spans")
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.json")); err != nil {
		t.Fatal(err)
	}
}

func TestTracerWritesSpansWithParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root := tr.begin("window", -1, -1)
	child := tr.begin("Server.SSSP", root, 42)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "dir", "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Req != 42 || spans[1].End < spans[1].Start {
		t.Fatalf("spans = %+v", spans)
	}
}
