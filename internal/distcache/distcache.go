// Package distcache caches completed SSSP distance vectors by
// (source, epoch), so repeat traffic on hot sources is answered at
// memcpy cost instead of recomputing a full phase schedule.
//
// The cache is sharded: a key hashes to one shard, each shard holds an
// intrusive eviction list plus an immutable lookup table behind an atomic
// pointer. The read path is lock-free — a lookup loads the shard's table
// pointer, probes the map (immutable once published, so concurrent reads
// are safe), and records recency with one atomic store on the entry. The
// per-shard mutex is taken only on insert and evict, where the table is
// copied, mutated, and republished. Recency is therefore lazy: hits stamp
// a logical clock tick instead of relinking a strict LRU list (which would
// drag the mutex into the read path), and eviction scans the shard's list
// for the stalest stamp.
//
// Admission is cost-aware: each vector is charged its byte size against a
// per-shard slice of the configured budget, and inserting evicts — oldest
// generation first, then least recently touched — until the vector fits.
// A vector larger than a whole shard's budget is never admitted.
//
// Epoch integration is by key: vectors are cached under the epoch that
// computed them, and BumpGeneration (called on an index hot-swap) marks
// older epochs stale. Stale entries are never flushed eagerly — they stop
// matching lookups (which always carry the current epoch) and die lazily,
// evicted first whenever their shard needs room.
//
// Do adds single-flight computation: concurrent misses on one (source,
// epoch) key elect a leader to compute while the rest park on the flight's
// channel. Panic and cancellation propagation mirror the engine's
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

// defaultShards is the shard count when Config.Shards is zero, before the
// budget clamp (a cache whose budget holds only a few vectors collapses to
// fewer shards so each can still admit).
const defaultShards = 64

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the total memory budget for cached vectors plus
	// per-entry overhead. New returns nil — a valid, always-miss cache —
	// when it is not positive.
	MaxBytes int64
	// Shards overrides the shard count; rounded down to a power of two
	// and clamped so every shard's budget slice holds at least two
	// vectors of the hinted size. 0 uses defaultShards.
	Shards int
	// VectorBytes hints the byte size of one cached vector (n×8 for
	// float64 distances), used only to clamp the shard count.
	VectorBytes int64
	// Retryable classifies a flight leader's error as leader-local:
	// waiters re-race for leadership instead of inheriting it. Nil treats
	// the leader's own context cancellation or deadline as leader-local.
	Retryable func(error) bool
}

type key struct {
	src   int32
	epoch uint64
}

// entry is one cached vector. dist is immutable after publication; touch
// is the lazy-LRU recency stamp, written lock-free on every hit. The
// intrusive prev/next links are guarded by the owning shard's mutex.
type entry struct {
	src   int32
	epoch uint64
	dist  []float64
	bytes int64
	touch atomic.Int64

	prev, next *entry
}

// shard is one cache partition: an immutable lookup table behind an
// atomic pointer (lock-free reads) and an intrusive insertion-ordered
// list used by eviction scans. mu guards all mutation.
type shard struct {
	table  atomic.Pointer[map[key]*entry]
	mu     sync.Mutex
	bytes  int64 // resident bytes, guarded by mu
	budget int64
	head   *entry // oldest inserted; guarded by mu
	tail   *entry
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

// Cache is a sharded, epoch-versioned, single-flight cache of distance
// vectors. All methods are safe for concurrent use and safe on a nil
// receiver (every operation misses / no-ops), so a disabled cache costs
// its callers one nil check.
type Cache struct {
	shards    []shard
	mask      uint64
	gen       atomic.Uint64
	clock     atomic.Int64
	retryable func(error) bool

	fmu     sync.Mutex
	flights map[key]*flight

	// The event counts behind Stats, which Server.Healthz and Telemetry's
	// sepsp_cache_*_total families both read; sharded, because every hit
	// advances one.
	hits, misses, shared, evictions, bytesTotal *obs.Counter

	bytesNow atomic.Int64
	entriesN atomic.Int64
}

// New builds a cache for cfg, or returns nil (a valid always-miss cache)
// when the budget is not positive.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = defaultShards
	}
	if per := cfg.VectorBytes + entryOverhead; cfg.VectorBytes > 0 {
		// Every shard must be able to hold at least two vectors, or
		// admission would thrash on a budget the cache nominally has.
		if fit := cfg.MaxBytes / (2 * per); fit < int64(ns) {
			ns = int(fit)
		}
	}
	p := 1
	for p*2 <= ns {
		p *= 2
	}
	c := &Cache{
		shards:     make([]shard, p),
		mask:       uint64(p - 1),
		retryable:  cfg.Retryable,
		flights:    make(map[key]*flight),
		hits:       obs.NewCounter(),
		misses:     obs.NewCounter(),
		shared:     obs.NewCounter(),
		evictions:  obs.NewCounter(),
		bytesTotal: obs.NewCounter(),
	}
	if c.retryable == nil {
		c.retryable = func(err error) bool {
			return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		}
	}
	per := cfg.MaxBytes / int64(p)
	for i := range c.shards {
		c.shards[i].budget = per
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
// scrapes: each sharded counter sums a few cache lines.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Shared:     c.shared.Value(),
		Evictions:  c.evictions.Value(),
		Bytes:      c.bytesNow.Load(),
		BytesTotal: c.bytesTotal.Value(),
		Entries:    c.entriesN.Load(),
		Generation: c.gen.Load(),
	}
}

func (c *Cache) shardOf(k key) *shard {
	h := uint64(uint32(k.src))*0x9e3779b97f4a7c15 ^ k.epoch*0xff51afd7ed558ccd
	h ^= h >> 33
	return &c.shards[h&c.mask]
}

// peek is the lock-free lookup: load the shard's immutable table, probe,
// stamp recency. Counts a hit when it finds the entry.
func (c *Cache) peek(src int, epoch uint64) *entry {
	if c == nil {
		return nil
	}
	k := key{int32(src), epoch}
	t := c.shardOf(k).table.Load()
	if t == nil {
		return nil
	}
	e := (*t)[k]
	if e == nil {
		return nil
	}
	e.touch.Store(c.clock.Add(1))
	c.hits.Inc()
	return e
}

// Get returns a fresh copy of the cached vector for (src, epoch), or
// (nil, false) on a miss. The copy is the caller's to mutate; the cached
// canonical vector is never handed out.
func (c *Cache) Get(src int, epoch uint64) ([]float64, bool) {
	e := c.peek(src, epoch)
	if e == nil {
		return nil, false
	}
	out := make([]float64, len(e.dist))
	copy(out, e.dist)
	return out, true
}

// GetAt returns the single distance dist[v] from the cached vector for
// (src, epoch) without copying anything — the point-query fast path.
func (c *Cache) GetAt(src int, epoch uint64, v int) (float64, bool) {
	e := c.peek(src, epoch)
	if e == nil || v < 0 || v >= len(e.dist) {
		return 0, false
	}
	return e.dist[v], true
}

// Put admits dist under (src, epoch), taking ownership of the slice (the
// caller must not mutate it afterwards). It reports false when the vector
// was not admitted: stale epoch, larger than a shard's whole budget, or a
// nil cache. Inserting evicts stale-generation entries first, then the
// least recently touched, until the vector fits.
func (c *Cache) Put(src int, epoch uint64, dist []float64) bool {
	if c == nil {
		return false
	}
	if epoch < c.gen.Load() {
		return false
	}
	need := int64(len(dist))*8 + entryOverhead
	k := key{int32(src), epoch}
	sh := c.shardOf(k)
	if need > sh.budget {
		return false
	}
	e := &entry{src: k.src, epoch: epoch, dist: dist, bytes: need}
	e.touch.Store(c.clock.Add(1))

	sh.mu.Lock()
	old := sh.table.Load()
	if old != nil {
		if _, dup := (*old)[k]; dup {
			// Same key means a bit-identical vector: keep the resident one.
			sh.mu.Unlock()
			return true
		}
	}
	gen := c.gen.Load()
	// Entries are immutable once published — concurrent readers may hold a
	// victim through an old table pointer, so eviction only unlinks and
	// drops the table reference; the GC reclaims the vector when the last
	// reader lets go.
	var victims []*entry
	for sh.bytes+need > sh.budget {
		v := sh.victimLocked(gen)
		sh.unlink(v)
		sh.bytes -= v.bytes
		victims = append(victims, v)
	}
	size := 1
	if old != nil {
		size += len(*old)
	}
	nt := make(map[key]*entry, size)
	if old != nil {
	rebuild:
		for kk, ee := range *old {
			for _, v := range victims {
				if ee == v {
					continue rebuild
				}
			}
			nt[kk] = ee
		}
	}
	nt[k] = e
	sh.table.Store(&nt)
	sh.bytes += need
	sh.link(e)
	sh.mu.Unlock()

	if n := int64(len(victims)); n > 0 {
		c.evictions.Add(n)
	}
	c.entriesN.Add(1 - int64(len(victims)))
	c.bytesNow.Store(c.residentBytes())
	c.bytesTotal.Add(need)
	return true
}

// residentBytes sums the shards' resident byte counts.
func (c *Cache) residentBytes() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// victimLocked picks the shard's eviction victim: the oldest-inserted
// stale-generation entry if any, else the least recently touched entry.
// The caller holds sh.mu and guarantees the list is non-empty.
func (sh *shard) victimLocked(gen uint64) *entry {
	var coldest *entry
	for e := sh.head; e != nil; e = e.next {
		if e.epoch < gen {
			return e
		}
		if coldest == nil || e.touch.Load() < coldest.touch.Load() {
			coldest = e
		}
	}
	return coldest
}

func (sh *shard) link(e *entry) {
	e.prev = sh.tail
	e.next = nil
	if sh.tail != nil {
		sh.tail.next = e
	} else {
		sh.head = e
	}
	sh.tail = e
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
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
		if e := c.peek(src, epoch); e != nil {
			out := make([]float64, len(e.dist))
			copy(out, e.dist)
			return out, Hit, nil
		}
		c.fmu.Lock()
		if f, ok := c.flights[k]; ok {
			c.fmu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					if f.retry {
						continue // leader-local failure: re-race for leadership
					}
					c.shared.Inc()
					return nil, Shared, f.err
				}
				out := make([]float64, len(f.dist))
				copy(out, f.dist)
				c.shared.Inc()
				return out, Shared, nil
			case <-ctx.Done():
				return nil, Shared, context.Cause(ctx)
			}
		}
		// A leader may have Put and settled between the peek above and
		// taking fmu; without this second look the caller would lead a
		// fresh flight and compute the vector again.
		if e := c.peek(src, epoch); e != nil {
			c.fmu.Unlock()
			out := make([]float64, len(e.dist))
			copy(out, e.dist)
			return out, Hit, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[k] = f
		c.fmu.Unlock()
		c.misses.Inc()
		return c.lead(k, f, compute)
	}
}

// lead runs the flight leader's computation and settles the flight.
func (c *Cache) lead(k key, f *flight, compute func() ([]float64, uint64, bool, error)) ([]float64, How, error) {
	settled := false
	settle := func(dist []float64, err error, retry bool) {
		f.dist, f.err, f.retry = dist, err, retry
		c.fmu.Lock()
		delete(c.flights, k)
		c.fmu.Unlock()
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
	canon := make([]float64, len(dist))
	copy(canon, dist)
	if admit {
		c.Put(int(k.src), aepoch, canon)
	}
	settle(canon, nil, false)
	return dist, Computed, nil
}
