package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer collects timed spans and exports them in the Chrome trace_event
// JSON format, viewable in chrome://tracing and Perfetto. All methods are
// safe for concurrent use; a nil *Tracer discards everything.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []traceEvent
}

// traceEvent is one complete ("ph":"X") event in the trace_event format.
// Timestamps are microseconds since the tracer's epoch.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Span is an in-flight timed region. The zero Span (from a nil tracer) is
// valid and End is a no-op.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	start time.Time
	args  map[string]any
}

// Start opens a span. kv is an alternating key/value list recorded as the
// event's args (values are marshaled by encoding/json).
func (t *Tracer) Start(name, cat string, kv ...any) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, start: time.Now(), args: kvMap(kv)}
}

// End closes the span and records it.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.events = append(s.t.events, traceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		Pid:  1,
		Ts:   float64(s.start.Sub(s.t.epoch)) / float64(time.Microsecond),
		Dur:  float64(end.Sub(s.start)) / float64(time.Microsecond),
		Args: s.args,
	})
	s.t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the JSON object format of the trace_event spec (the array
// format is also legal; the object form lets us set displayTimeUnit).
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON writes the collected events as a Chrome trace_event JSON
// document. A nil tracer writes an empty, still-loadable trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var evs []traceEvent
	if t != nil {
		t.mu.Lock()
		evs = append(evs, t.events...)
		t.mu.Unlock()
	}
	if evs == nil {
		evs = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// kvMap folds an alternating key/value list into an args map. A trailing
// key without a value and non-string keys are recorded defensively rather
// than dropped, so instrumentation bugs show up in the trace.
func kvMap(kv []any) map[string]any {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]any, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			k = "arg"
		}
		m[k] = kv[i+1]
	}
	if len(kv)%2 == 1 {
		m["dangling"] = kv[len(kv)-1]
	}
	return m
}
