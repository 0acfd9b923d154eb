package exp

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"sepsp/internal/core"
	"sepsp/internal/distcache"
	"sepsp/internal/pram"
)

// cacheSpeedupFloor is the E-cache gate's core claim: answering a repeated
// source from the result cache (one vector copy) must beat recomputing the
// SSSP by at least this factor at the largest measured n. The recorded
// baseline machine reaches orders of magnitude more; the gate demands only
// the machine-independent floor the cache must clear to be worth its memory.
const cacheSpeedupFloor = 10

// cacheHitAllocBudget is the absolute allocation budget of one cache hit:
// the caller's defensive copy of the vector, plus slack for the harness.
// Unlike the build/query gates this is not baseline-relative — the hit path
// is O(1) by construction and any growth is a regression.
const cacheHitAllocBudget = 2

// cacheFlightCallers is the concurrency of the single-flight measurement.
const cacheFlightCallers = 16

// cacheSink defeats dead-code elimination in the timed hit loop.
var cacheSink []float64

// CacheExperiment (E-cache) measures the epoch-aware result cache
// (internal/distcache) against recomputation: the wall-clock and allocation
// cost of a cache hit versus a fresh single-source query on the same
// engine, bit-identity of the cached vector, and the single-flight
// guarantee that concurrent misses on one source cost one computed lane.
// The recompute rows carry the counted-model work so the gate pins the
// baseline's query semantics exactly; hit rows are gated on the absolute
// allocation budget and the speedup floor.
func CacheExperiment(scale int) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	ht := &Table{
		ID:     "E-cache-hit",
		Title:  "Result cache: hit path (copy-out) vs recomputing the SSSP (single thread)",
		Header: []string{"n", "path", "time/op", "work", "allocs", "speedup", "identical"},
		Notes: []string{
			fmt.Sprintf("best of %d batches of %d ops; gate: recompute work exact vs baseline, hit allocs <= %d, largest-n speedup >= %d, hit vector bit-identical to a fresh SSSP",
				kernelReps, kernelBatch, cacheHitAllocBudget, cacheSpeedupFloor),
		},
	}
	ft := &Table{
		ID:     "E-cache-singleflight",
		Title:  fmt.Sprintf("Single-flight: %d concurrent misses on one cold source", cacheFlightCallers),
		Header: []string{"n", "callers", "computed", "answered without compute"},
		Notes: []string{
			"gate: exactly 1 computed lane per cold source; every other caller is answered from the flight or the admitted entry",
		},
	}
	for _, n := range []int{1024 * scale, 4096 * scale} {
		wl, err := MuWorkload(0.5, n, 23)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{Ex: pram.Sequential})
		if err != nil {
			return nil, err
		}
		nn := wl.G.N()
		src := nn / 2
		const epoch = 1
		cache := distcache.New(distcache.Config{MaxBytes: 64 << 20})
		cache.BumpGeneration(epoch)

		st := &pram.Stats{}
		fresh := eng.SSSP(src, st)
		vec := make([]float64, len(fresh))
		copy(vec, fresh)
		if !cache.Put(src, epoch, vec) {
			return nil, fmt.Errorf("exp: cache rejected a %d-vertex vector under a 64 MiB budget", nn)
		}
		tR, aR := timeQuery(func() { cacheSink = eng.SSSP(src, nil) })
		tH, aH := timeQuery(func() { cacheSink, _ = cache.Get(src, epoch) })

		identical := "yes"
		cached, ok := cache.Get(src, epoch)
		if !ok || len(cached) != len(fresh) {
			identical = "no"
		} else {
			for v := range fresh {
				if cached[v] != fresh[v] {
					identical = "no"
					break
				}
			}
		}
		ht.Rows = append(ht.Rows,
			[]string{d(int64(nn)), "recompute", tR.String(), d(st.Work()), d(aR), "-", "-"},
			[]string{d(int64(nn)), "cache hit", tH.String(), "0", d(aH),
				fmt.Sprintf("%.2f", tR.Seconds()/tH.Seconds()), identical},
		)

		// Single-flight: a fresh cache, a cold source, concurrent callers.
		fc := distcache.New(distcache.Config{MaxBytes: 64 << 20})
		fc.BumpGeneration(epoch)
		cold := src / 3
		var wg sync.WaitGroup
		errs := make([]error, cacheFlightCallers)
		for i := 0; i < cacheFlightCallers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, errs[i] = fc.Do(context.Background(), cold, epoch, func() ([]float64, uint64, bool, error) {
					return eng.SSSP(cold, nil), epoch, true, nil
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("exp: single-flight caller %d: %v", i, err)
			}
		}
		fs := fc.Stats()
		ft.Rows = append(ft.Rows, []string{
			d(int64(nn)), d(cacheFlightCallers), d(fs.Misses), d(fs.Hits + fs.Shared),
		})
	}
	return &Result{Tables: []*Table{ht, ft}}, nil
}

// GateCache compares a fresh E-cache run against a recorded baseline
// (BENCH_cache.json) and returns the violations, empty when the gate
// passes. Portable invariants only:
//
//   - the recompute rows' counted work must match the baseline exactly —
//     the cache must not change what a miss computes;
//   - every cached vector must be bit-identical to a fresh SSSP;
//   - a cache hit may allocate at most cacheHitAllocBudget times (absolute,
//     not baseline-relative: the hit path is O(1) by construction);
//   - the hit path must hold the speedup floor over recomputation at the
//     largest n on the current machine;
//   - concurrent misses on one cold source must compute exactly once, with
//     every other caller answered without computing.
//
// Wall-clock columns are recorded for humans and deliberately not gated.
func GateCache(curr, base *Result) []string {
	var bad []string

	ch, bh := tableByID(curr, "E-cache-hit"), tableByID(base, "E-cache-hit")
	if ch == nil || bh == nil {
		return []string{"hit table missing from current run or baseline"}
	}
	bad = append(bad, matchColumn(ch, bh, 2, "work", exactMatch)...)
	nCol, pCol := colIndex(ch, "n"), colIndex(ch, "path")
	aCol, sCol, iCol := colIndex(ch, "allocs"), colIndex(ch, "speedup"), colIndex(ch, "identical")
	bestN, bestSpeedup := -1.0, ""
	for _, row := range ch.Rows {
		if row[pCol] != "cache hit" {
			continue
		}
		if row[iCol] != "yes" {
			bad = append(bad, fmt.Sprintf("hit n=%s: cached vector not bit-identical to a fresh SSSP", row[nCol]))
		}
		if a, err := strconv.ParseFloat(row[aCol], 64); err != nil || a > cacheHitAllocBudget {
			bad = append(bad, fmt.Sprintf("hit n=%s: %s allocs, budget %d", row[nCol], row[aCol], cacheHitAllocBudget))
		}
		if n, err := strconv.ParseFloat(row[nCol], 64); err == nil && n > bestN {
			bestN, bestSpeedup = n, row[sCol]
		}
	}
	if s, err := strconv.ParseFloat(bestSpeedup, 64); err != nil || s < cacheSpeedupFloor {
		bad = append(bad, fmt.Sprintf("hit n=%.0f speedup %s below floor %d", bestN, bestSpeedup, cacheSpeedupFloor))
	}

	cf, bf := tableByID(curr, "E-cache-singleflight"), tableByID(base, "E-cache-singleflight")
	if cf == nil || bf == nil {
		return append(bad, "single-flight table missing from current run or baseline")
	}
	bad = append(bad, matchColumn(cf, bf, 2, "computed", exactMatch)...)
	compCol, ansCol := colIndex(cf, "computed"), colIndex(cf, "answered without compute")
	callCol := colIndex(cf, "callers")
	for _, row := range cf.Rows {
		if row[compCol] != "1" {
			bad = append(bad, fmt.Sprintf("single-flight [%s]: %s computed lanes, want 1", rowKey(row, 2), row[compCol]))
		}
		callers, _ := strconv.Atoi(row[callCol])
		if ans, err := strconv.Atoi(row[ansCol]); err != nil || ans != callers-1 {
			bad = append(bad, fmt.Sprintf("single-flight [%s]: %s answered without compute, want %d", rowKey(row, 2), row[ansCol], callers-1))
		}
	}
	return bad
}
