// Package distcache caches completed SSSP distance vectors by
// (source, epoch), so repeat traffic on hot sources is answered at
// memcpy cost instead of recomputing a full phase schedule.
//
// One mutex guards the whole cache: the lookup table, an intrusive
// recency list, the resident byte count and the in-flight computations.
// A hit moves its entry to the recent end of the list under the lock and
// copies the vector after releasing it. That is safe because an entry's
// vector is immutable once admitted and eviction only drops references:
// a reader still holding an evicted entry keeps a valid vector until the
// GC reclaims it.
//
// Admission is cost-aware: each vector is charged its byte size plus a
// fixed overhead against the configured budget, and inserting evicts —
// stale generations first, then the least recently used — until the
// vector fits. A vector larger than the whole budget is never admitted.
//
// Epoch integration is by key: vectors are cached under the epoch that
// computed them, and BumpGeneration (called on an index hot-swap) marks
// older epochs stale. Stale entries are never flushed eagerly — they stop
// matching lookups (which always carry the current epoch) and die lazily,
// evicted first whenever the cache needs room.
//
// Do adds single-flight computation: concurrent misses on one (source,
// epoch) key elect a leader to compute while the rest park on the flight's
// channel. A caller checks the table and the flights in one critical
// section, and a leader admits its vector before it settles the flight,
// so a caller arriving after the leader settles finds the vector instead
// of computing it again. Panic and cancellation propagation mirror the engine's
// runGuarded semantics: a leader's panic releases the waiters with
// ErrLeaderPanicked and then continues unwinding (the caller's own guard
// converts it), a leader error classified leader-local by the Retryable
// hook (its own context ending, typically) makes the surviving waiters
// re-race for leadership instead of inheriting a failure that was never
// theirs, and every other error is shared by the whole flight.
package distcache

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"sepsp/internal/obs"
)

// ErrLeaderPanicked answers a flight's waiters when the leader's
// computation panicked. The leader itself observes the original panic
// (its caller's guard converts it); waiters get this terminal error and
// do not retry.
var ErrLeaderPanicked = errors.New("distcache: in-flight computation panicked")

// entryOverhead approximates the fixed per-entry bookkeeping bytes
// (entry struct, map cell, list links) charged against the budget on top
// of the vector itself.
const entryOverhead = 128

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the total memory budget for cached vectors plus
	// per-entry overhead. New returns nil — a valid, always-miss cache —
	// when it is not positive.
	MaxBytes int64
	// Retryable classifies a flight leader's error as leader-local:
	// waiters re-race for leadership instead of inheriting it. Nil treats
	// the leader's own context cancellation or deadline as leader-local.
	Retryable func(error) bool
}

type key struct {
	src   int32
	epoch uint64
}

// entry is one cached vector. dist is immutable once admitted; the
// recency links are guarded by Cache.mu.
type entry struct {
	k     key
	dist  []float64
	bytes int64

	prev, next *entry
}

// flight is one in-flight single-flight computation. dist/err/retry are
// written by the leader before done is closed and read by waiters after —
// the close is the synchronization point.
type flight struct {
	done  chan struct{}
	dist  []float64 // canonical (never caller-mutated) vector on success
	err   error
	retry bool // leader-local failure: waiters re-race
}

// How reports how Do answered: by computing, from the cache, or by
// sharing another request's flight.
type How uint8

const (
	// Computed: this call was the flight leader and ran the computation.
	Computed How = iota
	// Hit: answered from a cached vector, no computation and no waiting.
	Hit
	// Shared: answered (or failed) by an already-in-flight leader's result.
	Shared
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits       int64  // lookups answered from a cached vector
	Misses     int64  // flights that computed (leader elections)
	Shared     int64  // waiters answered by another request's flight
	Evictions  int64  // entries evicted for budget room
	Bytes      int64  // resident bytes right now
	BytesTotal int64  // cumulative bytes admitted
	Entries    int64  // resident entries right now
	Generation uint64 // current epoch generation (see BumpGeneration)
}

// Cache is an epoch-versioned, single-flight LRU cache of distance
// vectors. All methods are safe for concurrent use and safe on a nil
// receiver (every operation misses / no-ops), so a disabled cache costs
// its callers one nil check.
type Cache struct {
	budget    int64
	retryable func(error) bool
	gen       atomic.Uint64

	// The event counts behind Stats, which Server.Healthz and Telemetry's
	// sepsp_cache_*_total families both read.
	hits, misses, shared, evictions, bytesTotal *obs.Counter

	mu      sync.Mutex
	table   map[key]*entry
	lru     entry // list sentinel: lru.next is least, lru.prev most recently used
	bytes   int64 // resident bytes
	flights map[key]*flight
}

// New builds a cache for cfg, or returns nil (a valid always-miss cache)
// when the budget is not positive.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	c := &Cache{
		budget:     cfg.MaxBytes,
		retryable:  cfg.Retryable,
		hits:       obs.NewCounter(),
		misses:     obs.NewCounter(),
		shared:     obs.NewCounter(),
		evictions:  obs.NewCounter(),
		bytesTotal: obs.NewCounter(),
		table:      make(map[key]*entry),
		flights:    make(map[key]*flight),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	if c.retryable == nil {
		c.retryable = func(err error) bool {
			return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		}
	}
	return c
}

// BumpGeneration marks every epoch below gen stale: stale entries stop
// being admitted and are evicted first, but are never flushed eagerly —
// lookups key on the caller's (current) epoch, so staleness only has to
// win eviction ties, not races.
func (c *Cache) BumpGeneration(gen uint64) {
	if c == nil {
		return
	}
	for {
		cur := c.gen.Load()
		if gen <= cur || c.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Generation returns the current generation (0 on a nil cache).
func (c *Cache) Generation() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// Stats snapshots the counters. Cheap enough for health probes and
// scrapes: each sharded counter sums a few cache lines, and the resident
// counts are read under one brief lock.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	bytes, entries := c.bytes, int64(len(c.table))
	c.mu.Unlock()
	return Stats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Shared:     c.shared.Value(),
		Evictions:  c.evictions.Value(),
		Bytes:      bytes,
		BytesTotal: c.bytesTotal.Value(),
		Entries:    entries,
		Generation: c.gen.Load(),
	}
}

// lookupLocked finds k's entry and, on a hit, counts it and makes it the
// most recently used. The caller holds c.mu.
func (c *Cache) lookupLocked(k key) *entry {
	e := c.table[k]
	if e != nil {
		c.unlink(e)
		c.link(e)
		c.hits.Inc()
	}
	return e
}

// lookup is lookupLocked under c.mu; nil on a miss or a nil cache.
func (c *Cache) lookup(src int, epoch uint64) *entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	e := c.lookupLocked(key{int32(src), epoch})
	c.mu.Unlock()
	return e
}

// Get returns a fresh copy of the cached vector for (src, epoch), or
// (nil, false) on a miss. The copy is the caller's to mutate; the cached
// canonical vector is never handed out.
func (c *Cache) Get(src int, epoch uint64) ([]float64, bool) {
	e := c.lookup(src, epoch)
	if e == nil {
		return nil, false
	}
	return slices.Clone(e.dist), true
}

// GetAt returns the single distance dist[v] from the cached vector for
// (src, epoch) without copying anything — the point-query fast path.
func (c *Cache) GetAt(src int, epoch uint64, v int) (float64, bool) {
	e := c.lookup(src, epoch)
	if e == nil || v < 0 || v >= len(e.dist) {
		return 0, false
	}
	return e.dist[v], true
}

// Put admits dist under (src, epoch), taking ownership of the slice (the
// caller must not mutate it afterwards). It reports false when the vector
// was not admitted: stale epoch, larger than the whole budget, or a nil
// cache. Inserting evicts stale-generation entries first, then the least
// recently used, until the vector fits.
func (c *Cache) Put(src int, epoch uint64, dist []float64) bool {
	if c == nil || epoch < c.gen.Load() {
		return false
	}
	need := int64(len(dist))*8 + entryOverhead
	if need > c.budget {
		return false
	}
	e := &entry{k: key{int32(src), epoch}, dist: dist, bytes: need}
	c.mu.Lock()
	c.insertLocked(e)
	c.mu.Unlock()
	return true
}

// insertLocked admits e, evicting until it fits; e.bytes must not exceed
// the budget. A resident entry under the same key holds a bit-identical
// vector, so it is kept and e is dropped. The caller holds c.mu.
func (c *Cache) insertLocked(e *entry) {
	if _, dup := c.table[e.k]; dup {
		return
	}
	gen := c.gen.Load()
	for c.bytes+e.bytes > c.budget {
		v := c.victimLocked(gen)
		c.unlink(v)
		delete(c.table, v.k)
		c.bytes -= v.bytes
		c.evictions.Inc()
	}
	c.table[e.k] = e
	c.link(e)
	c.bytes += e.bytes
	c.bytesTotal.Add(e.bytes)
}

// victimLocked picks the eviction victim: the least recently used
// stale-generation entry if any, else the least recently used entry. The
// caller holds c.mu and guarantees the cache is not empty.
func (c *Cache) victimLocked(gen uint64) *entry {
	for e := c.lru.next; e != &c.lru; e = e.next {
		if e.k.epoch < gen {
			return e
		}
	}
	return c.lru.next
}

// link makes e the most recently used entry.
func (c *Cache) link(e *entry) {
	e.prev, e.next = c.lru.prev, &c.lru
	e.prev.next, c.lru.prev = e, e
}

func (c *Cache) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Do answers (src, epoch) with single-flight computation. On a cached hit
// it returns a fresh copy immediately. Otherwise concurrent callers elect
// one leader whose compute callback runs; the rest park on the flight
// until the leader settles it or their own ctx ends.
//
// compute returns the vector, the epoch that actually served it (an index
// hot-swap may have advanced it past the flight's key), whether the
// result may be admitted to the cache (exact, non-degraded results only),
// and an error. The leader receives compute's vector as returned —
// caller-owned — while the cache and any waiters work from a private
// canonical copy, so callers may mutate what Do hands them.
//
// A leader error the Retryable hook classifies leader-local (its own
// cancellation or deadline) makes surviving waiters re-race for
// leadership; any other error is shared by the whole flight. A leader
// panic releases the waiters with ErrLeaderPanicked and keeps unwinding
// on the leader's goroutine.
func (c *Cache) Do(ctx context.Context, src int, epoch uint64, compute func() ([]float64, uint64, bool, error)) ([]float64, How, error) {
	if c == nil {
		dist, _, _, err := compute()
		return dist, Computed, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	k := key{int32(src), epoch}
	for {
		c.mu.Lock()
		if e := c.lookupLocked(k); e != nil {
			c.mu.Unlock()
			return slices.Clone(e.dist), Hit, nil
		}
		f, ok := c.flights[k]
		if !ok {
			f = &flight{done: make(chan struct{})}
			c.flights[k] = f
			c.mu.Unlock()
			c.misses.Inc()
			return c.lead(k, f, compute)
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				if f.retry {
					continue // leader-local failure: re-race for leadership
				}
				c.shared.Inc()
				return nil, Shared, f.err
			}
			c.shared.Inc()
			return slices.Clone(f.dist), Shared, nil
		case <-ctx.Done():
			return nil, Shared, context.Cause(ctx)
		}
	}
}

// lead runs the flight leader's computation and settles the flight.
func (c *Cache) lead(k key, f *flight, compute func() ([]float64, uint64, bool, error)) ([]float64, How, error) {
	settled := false
	settle := func(dist []float64, err error, retry bool) {
		f.dist, f.err, f.retry = dist, err, retry
		c.mu.Lock()
		delete(c.flights, k)
		c.mu.Unlock()
		settled = true
		close(f.done)
	}
	defer func() {
		if !settled {
			// compute panicked: release the waiters, then keep unwinding —
			// the leader's caller guard owns converting the panic.
			settle(nil, ErrLeaderPanicked, false)
		}
	}()
	dist, aepoch, admit, err := compute()
	if err != nil {
		settle(nil, err, c.retryable(err))
		return nil, Computed, err
	}
	canon := slices.Clone(dist)
	if admit {
		c.Put(int(k.src), aepoch, canon)
	}
	settle(canon, nil, false)
	return dist, Computed, nil
}
