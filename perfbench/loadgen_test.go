package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleIsReproducibleFromSeed(t *testing.T) {
	a := poissonTimes(rand.New(rand.NewSource(7)), 300, 10*time.Second)
	b := poissonTimes(rand.New(rand.NewSource(7)), 300, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival times")
	}
	c := poissonTimes(rand.New(rand.NewSource(8)), 300, 10*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrival times")
	}
}

func TestPoissonScheduleRateAndOrder(t *testing.T) {
	span := 20 * time.Second
	ts := poissonTimes(rand.New(rand.NewSource(1)), 500, span)
	// 10000 expected; five standard deviations is 500.
	if n := len(ts); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 20 s at 500/s", n)
	}
	for i, at := range ts {
		if at < 0 || at >= span {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, at, span)
		}
		if i > 0 && at < ts[i-1] {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, at, i-1, ts[i-1])
		}
	}
}

func TestZipfSourcesAreReproducibleAndSkewed(t *testing.T) {
	const n, k = 4096, 20000
	a := zipfSources(rand.New(rand.NewSource(3)), n, k, 1.1)
	b := zipfSources(rand.New(rand.NewSource(3)), n, k, 1.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sources")
	}
	if reflect.DeepEqual(a, zipfSources(rand.New(rand.NewSource(4)), n, k, 1.1)) {
		t.Fatal("different seeds gave the same sources")
	}
	freq := map[int]int{}
	top := 0
	for _, s := range a {
		if s < 0 || s >= n {
			t.Fatalf("source %d outside [0, %d)", s, n)
		}
		freq[s]++
		top = max(top, freq[s])
	}
	// A uniform draw puts about 5 requests on each vertex; Zipf(1.1) puts
	// thousands on the hottest.
	if top < 1000 {
		t.Fatalf("hottest source drew %d of %d requests; want a skewed law", top, k)
	}
}

func TestZipfSamplersShareTheLawsHotVertices(t *testing.T) {
	law := newZipfLaw(rand.New(rand.NewSource(5)), 4096, 1.3)
	draw := func(seed int64) []int {
		next := law.sampler(rand.New(rand.NewSource(seed)))
		out := make([]int, 2000)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	a, b := draw(1), draw(2)
	if !reflect.DeepEqual(a, draw(1)) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same stream")
	}
	hottest := func(s []int) int {
		freq := map[int]int{}
		best := s[0]
		for _, v := range s {
			freq[v]++
			if freq[v] > freq[best] {
				best = v
			}
		}
		return best
	}
	if hottest(a) != law.perm[0] || hottest(b) != law.perm[0] {
		t.Fatalf("hottest sources %d and %d, want the law's rank-0 vertex %d", hottest(a), hottest(b), law.perm[0])
	}
}

func TestOpenLoopSendsEveryRequestOnSchedule(t *testing.T) {
	reqs := schedule([]time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}, []int{1, 2, 3})
	called := make([]time.Duration, len(reqs))
	start := time.Now()
	sent := openLoop(start, reqs, func(i int) {
		called[i] = time.Since(start)
		time.Sleep(20 * time.Millisecond) // a slow call delays no later send
	})
	if len(sent) != len(reqs) {
		t.Fatalf("%d send times for %d requests", len(sent), len(reqs))
	}
	for i, r := range reqs {
		if sent[i] < r.at-timerSlack {
			t.Errorf("request %d sent at %v, more than %v before its due time %v", i, sent[i], timerSlack, r.at)
		}
		if called[i] < sent[i] {
			t.Errorf("request %d called at %v, before it was sent at %v", i, called[i], sent[i])
		}
	}
	if called[2] >= 20*time.Millisecond {
		t.Errorf("third request sent at %v: the open loop waited for earlier calls", called[2])
	}
}

func TestLatencyCountsFromTheEarlierOfDueAndSent(t *testing.T) {
	ms := time.Millisecond
	r := request{at: 10 * ms}
	if got := latency(r, 12*ms, 15*ms); got != 5*ms {
		t.Errorf("late send: latency %v, want 5ms from the due time", got)
	}
	if got := latency(r, 9*ms, 15*ms); got != 6*ms {
		t.Errorf("early send: latency %v, want 6ms from the send", got)
	}
	if got := lateness(r, 12*ms); got != 2*ms {
		t.Errorf("lateness of a late send = %v, want 2ms", got)
	}
	if got := lateness(r, 9*ms); got != 0 {
		t.Errorf("lateness of an early send = %v, want 0", got)
	}
}
