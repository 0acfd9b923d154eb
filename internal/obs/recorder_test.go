package obs

import (
	"sync"
	"testing"
)

// TestRecorderWrap fills the ring past capacity and checks the snapshot
// holds exactly the newest events in order.
func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(16)
	if r.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", r.Cap())
	}
	for i := 1; i <= 40; i++ {
		r.Record(Event{Source: int32(i), Wave: int64(i)})
	}
	events := r.Snapshot()
	if len(events) != 16 {
		t.Fatalf("got %d events, want 16", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(25 + i)
		if e.Seq != wantSeq || e.Source != int32(wantSeq) {
			t.Fatalf("event %d = seq %d source %d, want seq %d", i, e.Seq, e.Source, wantSeq)
		}
	}
}

// TestRecorderSwapEventsSurviveTrafficFlood: lifecycle events live in
// their own ring, so a traffic burst orders of magnitude larger than the
// main ring must not evict them, and the merged snapshot stays seq-ordered
// with the swaps spliced where they happened.
func TestRecorderSwapEventsSurviveTrafficFlood(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: KindSwap, Epoch: 2, Source: -1})
	for i := 0; i < 10_000; i++ {
		r.Record(Event{Kind: KindQuery, Source: int32(i)})
	}
	r.Record(Event{Kind: KindSwap, Epoch: 3, Source: -1})
	for i := 0; i < 10_000; i++ {
		r.Record(Event{Kind: KindWave, Source: -1})
	}
	events := r.Snapshot()
	var swaps []Event
	lastSeq := uint64(0)
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("snapshot out of order: seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Kind == KindSwap {
			swaps = append(swaps, e)
		}
	}
	if len(swaps) != 2 {
		t.Fatalf("got %d swap events after the flood, want 2 (snapshot len %d)", len(swaps), len(events))
	}
	if swaps[0].Epoch != 2 || swaps[0].Seq != 1 {
		t.Fatalf("first swap = seq %d epoch %d, want seq 1 epoch 2", swaps[0].Seq, swaps[0].Epoch)
	}
	if swaps[1].Epoch != 3 || swaps[1].Seq != 10_002 {
		t.Fatalf("second swap = seq %d epoch %d, want seq 10002 epoch 3", swaps[1].Seq, swaps[1].Epoch)
	}
	// Lifecycle ring wrap: only the newest lifecycleSlots swaps remain.
	for i := 0; i < 40; i++ {
		r.Record(Event{Kind: KindSwap, Epoch: uint64(10 + i), Source: -1})
	}
	swaps = swaps[:0]
	for _, e := range r.Snapshot() {
		if e.Kind == KindSwap {
			swaps = append(swaps, e)
		}
	}
	if len(swaps) != lifecycleSlots {
		t.Fatalf("got %d swap events after wrap, want %d", len(swaps), lifecycleSlots)
	}
	if first := swaps[0].Epoch; first != uint64(10+40-lifecycleSlots) {
		t.Fatalf("oldest surviving swap epoch = %d, want %d", first, 10+40-lifecycleSlots)
	}
}

// TestRecorderFieldRoundTrip checks every packed field survives.
func TestRecorderFieldRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	in := Event{
		Time: 123456789, Kind: KindFailure, Outcome: OutcomeTimeout,
		Source: -1, Wave: 7, Batch: 12, QueueNanos: 1000, ComputeNanos: 2000,
		Degraded: true,
	}
	r.Record(in)
	got := r.Snapshot()
	if len(got) != 1 {
		t.Fatalf("got %d events", len(got))
	}
	in.Seq = 1
	if got[0] != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[0], in)
	}
}

// TestRecorderConcurrent races writers against snapshot readers; under
// -race this is the memory-safety check, and every returned event must be
// internally consistent (source == wave id by construction).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := int64(w*per + i)
				r.Record(Event{Source: int32(v), Wave: v, QueueNanos: v})
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range r.Snapshot() {
					if int64(e.Source) != e.Wave || e.QueueNanos != e.Wave {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("final snapshot %d events, want 64", got)
	}
}
