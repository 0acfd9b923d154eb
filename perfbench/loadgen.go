package main

import (
	"math/rand"
	"sync"
	"time"
)

// request is one scheduled query of an open-loop run.
type request struct {
	at  time.Duration // when it is due, from the start of the schedule
	src int
}

// poissonTimes returns the arrival times of a Poisson process of the given
// rate (per second) on [0, span): exponential gaps drawn from rng.
func poissonTimes(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, at)
	}
}

// zipfLaw is a Zipf(s) law over n vertices. Rank r maps to vertex perm[r]
// of a seeded permutation, so the hot vertices are spread over the graph
// rather than clustered at low ids.
type zipfLaw struct {
	perm []int
	s    float64
}

func newZipfLaw(rng *rand.Rand, n int, s float64) *zipfLaw {
	return &zipfLaw{perm: rng.Perm(n), s: s}
}

// sampler returns a stream of sources drawn with rng. Every stream of one
// law has the same hot vertices.
func (z *zipfLaw) sampler(rng *rand.Rand) func() int {
	d := rand.NewZipf(rng, z.s, 1, uint64(len(z.perm)-1))
	return func() int { return z.perm[d.Uint64()] }
}

// zipfSources draws k sources from a Zipf(s) law over n vertices.
func zipfSources(rng *rand.Rand, n, k int, s float64) []int {
	next := newZipfLaw(rng, n, s).sampler(rng)
	out := make([]int, k)
	for i := range out {
		out[i] = next()
	}
	return out
}

// schedule zips arrival times and sources into requests.
func schedule(times []time.Duration, srcs []int) []request {
	out := make([]request, len(times))
	for i := range out {
		out[i] = request{at: times[i], src: srcs[i]}
	}
	return out
}

// timerSlack is how early the load generator may send a request. Go's
// runtime timers fire on a one-millisecond grid when the process is idle,
// so a sleep until the due time would overshoot by up to a millisecond;
// the generator sleeps until timerSlack before it instead.
const timerSlack = time.Millisecond

// openLoop sends reqs on their schedule regardless of how earlier ones are
// doing: each is started on its own goroutine at its due time (up to
// timerSlack early, and at once if the generator is already late), so a
// stall in the system delays no send. It returns when each request was
// sent, from start, after every call has returned.
func openLoop(start time.Time, reqs []request, send func(i int)) []time.Duration {
	sent := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		if d := r.at - timerSlack - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sent[i] = time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i)
		}()
	}
	wg.Wait()
	return sent
}

// latency is how long a request took, from its due time or from when it
// was sent if that was earlier: a late send counts against the system,
// an early one does not count for it.
func latency(r request, sent, done time.Duration) time.Duration {
	return done - min(r.at, sent)
}

// lateness is how far after its due time a request was sent (0 if not).
func lateness(r request, sent time.Duration) time.Duration {
	return max(0, sent-r.at)
}
