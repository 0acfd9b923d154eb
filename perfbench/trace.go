package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start and end (from the
// tracer's origin), the span that caused it (-1 for none), and the request
// it served (-1 for none). Spans of one request share the request id.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id, for end and as a parent.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns fn's duration in seconds.
func (t *tracer) timed(name string, parent int, fn func() error) (float64, error) {
	id := t.begin(name, parent, -1)
	start := time.Now()
	err := fn()
	el := time.Since(start).Seconds()
	t.end(id)
	return el, err
}

// spanStat summarizes the closed spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed durations minus the time children cover
}

// summary groups closed spans by name. A span's self time is its duration
// minus the part of its interval covered by the union of its children, so
// concurrent children are not subtracted twice.
func (t *tracer) summary() []spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	by := map[string]*spanStat{}
	for id, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(kids[id], s.Start, s.End)
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// write saves every span as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
