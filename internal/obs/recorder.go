package obs

import (
	"encoding/json"
	"sync/atomic"
	"time"
)

// Kind classifies a flight-recorder event.
type Kind uint8

const (
	// KindQuery is a query that completed successfully.
	KindQuery Kind = iota
	// KindWave is one executed coalesced wave.
	KindWave
	// KindFailure is a query that ended in anything but success (shed,
	// timeout, cancellation, panic, typed error).
	KindFailure
	// KindSwap is an index-lifecycle event: a completed epoch hot-swap
	// (OutcomeOK) or a failed reweighting rebuild (OutcomeError).
	KindSwap
	// KindCacheHit is a query answered without a wave: from the distance
	// cache (including single-flight waiters sharing another request's
	// computation) or from the pair oracle.
	KindCacheHit
	// KindCacheMiss is a cache miss that became a single-flight leader and
	// computed a fresh vector through the admission path.
	KindCacheMiss
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindWave:
		return "wave"
	case KindFailure:
		return "failure"
	case KindSwap:
		return "swap"
	case KindCacheHit:
		return "cache-hit"
	case KindCacheMiss:
		return "cache-miss"
	}
	return "unknown"
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Outcome classifies how a request ended.
type Outcome uint8

const (
	// OutcomeOK: the request was answered with exact distances.
	OutcomeOK Outcome = iota
	// OutcomeTimeout: the request outlived the server's queue deadline.
	OutcomeTimeout
	// OutcomeShed: the request was refused at admission (overload).
	OutcomeShed
	// OutcomeCancelled: the caller's context ended first.
	OutcomeCancelled
	// OutcomePanic: the serving wave panicked and was recovered.
	OutcomePanic
	// OutcomeError: any other typed serving error.
	OutcomeError
	// OutcomeBrownout: the request was shed from the main queue but answered
	// degraded from the baseline fallback engine (still exact distances).
	OutcomeBrownout

	// NumOutcomes is the number of outcomes, for arrays indexed by one.
	NumOutcomes = int(OutcomeBrownout) + 1
)

// String returns the outcome's wire name.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeShed:
		return "shed"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomePanic:
		return "panic"
	case OutcomeError:
		return "error"
	case OutcomeBrownout:
		return "brownout"
	}
	return "unknown"
}

// MarshalJSON encodes the outcome as its string name.
func (o Outcome) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// Event is one flight-recorder record. All fields are plain values so a
// slot fits in a handful of atomic words.
type Event struct {
	// Seq is the event's position in the recorder's total order (1-based,
	// monotonically increasing across wraps).
	Seq uint64 `json:"seq"`
	// Time is the event time in Unix nanoseconds.
	Time int64 `json:"time_unix_nano"`
	// Kind is query, wave, or failure.
	Kind Kind `json:"kind"`
	// Outcome is how the request (or wave) ended.
	Outcome Outcome `json:"outcome"`
	// Source is the query's source vertex (-1 for wave events).
	Source int32 `json:"source"`
	// Wave is the id of the wave that served the event (0: never reached a
	// wave — shed at admission or dead on arrival).
	Wave int64 `json:"wave"`
	// Batch is the number of live requests in the wave.
	Batch int32 `json:"batch"`
	// QueueNanos and ComputeNanos decompose the latency into time spent
	// queued (admission → wave start) and the wave's shared compute time.
	QueueNanos   int64 `json:"queue_ns"`
	ComputeNanos int64 `json:"compute_ns"`
	// Epoch is the serving epoch the event belongs to: the epoch whose
	// index served the query or wave, and the new (or for a failed rebuild,
	// the retained) epoch for KindSwap events. 0 when the serving stack has
	// no epoch lifecycle (an unmanaged index).
	Epoch uint64 `json:"epoch"`
	// Degraded reports whether the index was serving from the baseline
	// fallback engine at the time.
	Degraded bool `json:"degraded"`
}

// slot is one ring cell. ver is a per-slot seqlock: odd while a writer
// holds the slot, bumped to even when it lets go. Every field is an atomic
// word, so readers never race a writer at the memory level; the version
// check makes torn *logical* reads detectable and retried.
type slot struct {
	ver     atomic.Uint64
	seq     atomic.Uint64 // ticket of the event the slot currently holds
	time    atomic.Int64
	wave    atomic.Int64
	queueNs atomic.Int64
	compNs  atomic.Int64
	epoch   atomic.Uint64
	// packed: source in the high 32 bits, batch in the low 32.
	srcBatch atomic.Uint64
	// packed: kind<<16 | outcome<<8 | degraded.
	meta atomic.Uint64
}

// Recorder is the flight recorder: a fixed-size lock-free ring that keeps
// the most recent events. Writers take a ticket with one atomic add and
// claim the ticket's slot by moving its version from even to odd with one
// compare-and-swap, so at most one writer is ever inside a slot. A writer
// that finds its slot held by another writer (the ring lapped a write in
// flight), or already holding a newer ticket, drops its event: Record never
// waits, never blocks and never allocates. Snapshot walks the ring and
// skips slots a writer holds and tickets whose slot holds another one, so
// an event can be missing from a snapshot, never mixed with another.
//
// Lifecycle events (KindSwap) are rare but precious: a busy server's
// query and wave traffic would lap them out of the main ring within
// milliseconds of an epoch swap. They are stored in a small dedicated
// ring instead, so the last lifecycleSlots of them survive any traffic
// rate; Snapshot merges both rings back into one seq-ordered view.
type Recorder struct {
	mask   uint64
	cursor atomic.Uint64 // tickets issued (1-based), shared by both rings
	slots  []slot

	lcMask   uint64
	lcCursor atomic.Uint64 // lifecycle slots claimed
	lcSlots  []slot
}

// lifecycleSlots is the dedicated lifecycle ring's capacity. Swaps arrive
// at human timescales (reload timers, operator actions), so a handful of
// slots spans far more wall clock than the whole traffic ring.
const lifecycleSlots = 16

// NewRecorder returns a recorder holding the most recent `size` events,
// rounded up to a power of two (minimum 16), plus the most recent
// lifecycleSlots lifecycle events in a ring of their own.
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{
		mask: uint64(n - 1), slots: make([]slot, n),
		lcMask: lifecycleSlots - 1, lcSlots: make([]slot, lifecycleSlots),
	}
}

// Cap returns the ring capacity (0 for nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record appends e, overwriting the oldest event once the ring is full.
// e.Seq is assigned by the recorder. Safe for concurrent use and
// wait-free: a fetch-add for the ticket and one compare-and-swap for the
// slot, after which e is written or dropped.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	ticket := r.cursor.Add(1)
	s := &r.slots[(ticket-1)&r.mask]
	if e.Kind == KindSwap {
		// Seq stays a shared-cursor ticket (one total order across both
		// rings); only the slot comes from the lifecycle ring.
		s = &r.lcSlots[(r.lcCursor.Add(1)-1)&r.lcMask]
	}
	v := s.ver.Load()
	if v&1 != 0 || !s.ver.CompareAndSwap(v, v+1) {
		return // another writer holds the slot
	}
	// A newer ticket that already wrote here has lapped this event.
	if s.seq.Load() < ticket {
		s.time.Store(e.Time)
		s.wave.Store(e.Wave)
		s.queueNs.Store(e.QueueNanos)
		s.compNs.Store(e.ComputeNanos)
		s.epoch.Store(e.Epoch)
		s.srcBatch.Store(uint64(uint32(e.Source))<<32 | uint64(uint32(e.Batch)))
		var deg uint64
		if e.Degraded {
			deg = 1
		}
		s.meta.Store(uint64(e.Kind)<<16 | uint64(e.Outcome)<<8 | deg)
		s.seq.Store(ticket)
	}
	s.ver.Store(v + 2) // even: released
}

// read performs one seqlock-checked read of a slot. ok reports a stable
// (untorn) read; callers validate the seq themselves.
func (s *slot) read() (e Event, ok bool) {
	for attempt := 0; attempt < 3; attempt++ {
		v1 := s.ver.Load()
		if v1&1 != 0 {
			continue // writer mid-flight; retry
		}
		e = Event{
			Seq:          s.seq.Load(),
			Time:         s.time.Load(),
			Wave:         s.wave.Load(),
			QueueNanos:   s.queueNs.Load(),
			ComputeNanos: s.compNs.Load(),
			Epoch:        s.epoch.Load(),
		}
		sb := s.srcBatch.Load()
		e.Source = int32(sb >> 32)
		e.Batch = int32(uint32(sb))
		meta := s.meta.Load()
		e.Kind = Kind(meta >> 16)
		e.Outcome = Outcome(meta >> 8 & 0xff)
		e.Degraded = meta&1 != 0
		if s.ver.Load() == v1 {
			return e, true
		}
	}
	return Event{}, false
}

// Snapshot returns the recorded events oldest-first — the union of the
// traffic ring and the lifecycle ring in one seq order. Slots mid-write or
// lapped during the read are skipped.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	newest := r.cursor.Load()
	n := uint64(len(r.slots))
	oldest := uint64(1)
	if newest > n {
		oldest = newest - n + 1
	}
	out := make([]Event, 0, newest-oldest+1)
	for t := oldest; t <= newest; t++ {
		// A ticket claimed by a lifecycle event leaves its traffic slot
		// untouched; the stale seq there fails the check below and the
		// event is picked up from the lifecycle ring instead.
		if e, ok := r.slots[(t-1)&r.mask].read(); ok && e.Seq == t {
			out = append(out, e)
		}
	}
	// Lifecycle events keep their shared-cursor Seq, so they splice into
	// the traffic timeline by insertion sort (both rings are tiny and the
	// lifecycle one is nearly always almost-empty).
	lcNewest := r.lcCursor.Load()
	lcOldest := uint64(1)
	if lcNewest > uint64(len(r.lcSlots)) {
		lcOldest = lcNewest - uint64(len(r.lcSlots)) + 1
	}
	for p := lcOldest; p <= lcNewest; p++ {
		e, ok := r.lcSlots[(p-1)&r.lcMask].read()
		if !ok || e.Seq == 0 {
			continue
		}
		i := len(out)
		for i > 0 && out[i-1].Seq > e.Seq {
			i--
		}
		out = append(out, Event{})
		copy(out[i+1:], out[i:])
		out[i] = e
	}
	return out
}

// Now returns the current time in Unix nanoseconds — the recorder's clock,
// centralized so call sites stay one line.
func Now() int64 { return time.Now().UnixNano() }
