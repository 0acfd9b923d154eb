package admission

import "testing"

// notes feeds n identical decisions and reports whether brownout was
// engaged after each, in order.
func notes(b *Brownout, shed bool, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		b.Note(shed)
		out[i] = b.Active()
	}
	return out
}

func TestBrownoutEngagesAtThreshold(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Threshold: 0.5})
	if b.Active() {
		t.Fatal("fresh detector must be inactive")
	}
	// With the 0.05 EWMA step the rate after k sheds is 1-0.95^k: 0.487
	// after 13, 0.512 after 14.
	for k, active := range notes(b, true, 14) {
		if want := k+1 == 14; active != want {
			t.Fatalf("after %d sheds: active=%v, want %v", k+1, active, want)
		}
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Threshold: 0.5})
	notes(b, true, 14) // rate 0.512: engage
	if !b.Active() {
		t.Fatal("want active")
	}
	// Admissions decay the rate by 0.95 each: below the 0.5 threshold
	// after one, but the exit is 0.25, first undercut after 14 (0.2498).
	for j, active := range notes(b, false, 14) {
		if want := j+1 < 14; active != want {
			t.Fatalf("after %d admissions: active=%v, want %v (hysteresis exits below 0.25)", j+1, active, want)
		}
	}
	// Re-engaging works the same way from the lower rate.
	notes(b, true, 10)
	if !b.Active() {
		t.Fatal("want brownout re-engaged")
	}
}

func TestBrownoutStaysQuietUnderLightShedding(t *testing.T) {
	b := NewBrownout(BrownoutConfig{}) // default threshold 0.1
	// 2% shed rate stays well below the 10% knee.
	for i := 0; i < 500; i++ {
		b.Note(i%50 == 0)
		if b.Active() {
			t.Fatalf("2%% shed rate engaged brownout at decision %d", i)
		}
	}
}

// TestBrownoutDefaultExitHalvesThreshold replays a shed/admit sequence
// against a reference model: an EWMA with step 0.05 that engages at the
// threshold and disengages below half of it.
func TestBrownoutDefaultExitHalvesThreshold(t *testing.T) {
	const threshold = 0.2
	b := NewBrownout(BrownoutConfig{Threshold: threshold})
	rate, active, flips := 0.0, false, 0
	for i := 0; i < 400; i++ {
		shed := (i/50)%2 == 0 // alternate runs of 50 sheds and 50 admissions
		v := 0.0
		if shed {
			v = 1
		}
		rate += 0.05 * (v - rate)
		switch {
		case !active && rate >= threshold:
			active = true
			flips++
		case active && rate < threshold/2:
			active = false
			flips++
		}
		b.Note(shed)
		if b.Active() != active {
			t.Fatalf("decision %d (rate %.4f): active=%v, model %v", i, rate, b.Active(), active)
		}
	}
	if flips < 4 {
		t.Fatalf("model flipped %d times; the sequence must cross both thresholds", flips)
	}
}
