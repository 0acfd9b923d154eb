package exp

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"sepsp/internal/core"
	"sepsp/internal/pram"
)

// querySpeedupFloor is the portable part of the E-query gate: the optimized
// single-source query (SoA phase arena + run-delta tracking) must beat the
// retained naive reference relaxer by at least this factor, single thread,
// at the largest measured n. A shared 2-vCPU host measures about this ratio,
// so there the gate fails on some runs (see DESIGN.md "Query performance").
const querySpeedupFloor = 1.3

// waveScalingFloor is the E-query-wave gate: a k=32 wave on P=4 workers
// must beat the same wave on P=1 by this factor — handing the lane blocks
// to the workers must buy real scaling. Skipped on single-CPU runners where
// no scaling is physically possible.
const waveScalingFloor = 1.3

// queryReps and queryBatch size the E-query single-source timing: more
// batches than kernelReps, because the gated speedup compares two paths
// that a noisy host slows unevenly when they are timed one after the other.
const (
	queryReps  = 15
	queryBatch = 20
)

// timeBatch runs run batch times and returns the per-call wall clock and
// the per-call Mallocs delta.
func timeBatch(run func(), batch int) (time.Duration, int64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < batch; i++ {
		run()
	}
	el := time.Since(start) / time.Duration(batch)
	runtime.ReadMemStats(&m1)
	return el, int64(m1.Mallocs-m0.Mallocs) / int64(batch)
}

// timeQuery reports the best per-call wall clock of run over kernelReps
// batches of kernelBatch calls (one warmup call first, mirroring the
// testing.B harness), plus the per-call Mallocs delta of the best batch.
func timeQuery(run func()) (time.Duration, int64) {
	run() // warmup: workspace pools fill here
	best := time.Duration(math.MaxInt64)
	var allocs int64
	for rep := 0; rep < kernelReps; rep++ {
		if el, a := timeBatch(run, kernelBatch); el < best {
			best, allocs = el, a
		}
	}
	return best, allocs
}

// timeInterleaved is timeQuery for two paths timed against each other: it
// runs queryReps rounds of one queryBatch-call batch per path, swapping
// which path goes first each round, so a host slowdown lands on both
// sides, and reports each path's best per-call wall clock and the Mallocs
// of that batch.
func timeInterleaved(ref, opt func()) (tR, tO time.Duration, aR, aO int64) {
	paths := [2]func(){ref, opt}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	var allocs [2]int64
	for _, run := range paths {
		// Warm-up: the optimized path's workspace pool fills here.
		run()
	}
	for rep := 0; rep < queryReps; rep++ {
		for k := range paths {
			i := (rep + k) % 2
			if el, a := timeBatch(paths[i], queryBatch); el < best[i] {
				best[i], allocs[i] = el, a
			}
		}
	}
	return best[0], best[1], allocs[0], allocs[1]
}

// QueryExperiment (E-query) measures the query path end to end: the
// optimized single-source executor (SoA phase arena, per-run head caching,
// run-delta tracking) against the retained naive reference relaxer on the
// same schedule, and the lane-major wave across worker counts. Counted
// work is a property of the static schedule — the same for both paths and
// deterministic, so the gate pins it exactly; wall clock and speedup are
// the machine-local perf baseline BENCH_query.json records.
func QueryExperiment(scale int) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	qt := &Table{
		ID:     "E-query-sssp",
		Title:  "Single-source query: optimized (SoA + run tracking) vs naive reference relaxer (single thread)",
		Header: []string{"n", "path", "time/query", "work", "allocs", "speedup"},
		Notes: []string{
			fmt.Sprintf("best of %d interleaved batches of %d queries per path; gate: work exact vs baseline and optimized == reference, largest-n speedup >= %.2f, allocs <= %.1fx baseline + %d",
				queryReps, queryBatch, querySpeedupFloor, allocSlack, allocAbsSlack),
		},
	}
	var largestN int
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
		largestN = nn
		src := nn / 2
		stR, stO := &pram.Stats{}, &pram.Stats{}
		eng.SSSPReference(src, stR)
		eng.SSSP(src, stO)
		tR, tO, aR, aO := timeInterleaved(func() { eng.SSSPReference(src, nil) }, func() { eng.SSSP(src, nil) })
		qt.Rows = append(qt.Rows,
			[]string{d(int64(nn)), "reference", tR.String(), d(stR.Work()), d(aR), "-"},
			[]string{d(int64(nn)), "optimized", tO.String(), d(stO.Work()), d(aO),
				fmt.Sprintf("%.2f", tR.Seconds()/tO.Seconds())},
		)
	}
	qt.Notes = append(qt.Notes, fmt.Sprintf("largest n this run: %d (speedup floor applies there)", largestN))

	const waveK = 32
	wt := &Table{
		ID:     "E-query-wave",
		Title:  fmt.Sprintf("Batched wave: lane-major blocks across worker counts, k=%d sources", waveK),
		Header: []string{"n", "k", "P", "time/wave", "work", "speedup"},
		Notes: []string{
			fmt.Sprintf("gate: counted work exact vs baseline and independent of P; P=4 speedup >= %.2f (skipped on <2-CPU runners)", waveScalingFloor),
		},
	}
	wl, err := MuWorkload(0.5, 4096*scale, 23)
	if err != nil {
		return nil, err
	}
	srcs := make([]int, waveK)
	for j := range srcs {
		srcs[j] = (j * 37) % wl.G.N()
	}
	var t1 time.Duration
	for _, p := range []int{1, 4} {
		eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{Ex: pram.NewExecutor(p)})
		if err != nil {
			return nil, err
		}
		st := &pram.Stats{}
		eng.SourcesBatched(srcs, st)
		tW, _ := timeQuery(func() { eng.SourcesBatched(srcs, nil) })
		sp := "-"
		if p == 1 {
			t1 = tW
		} else {
			sp = fmt.Sprintf("%.2f", t1.Seconds()/tW.Seconds())
		}
		wt.Rows = append(wt.Rows, []string{
			d(int64(wl.G.N())), d(waveK), d(int64(p)), tW.String(), d(st.Work()), sp,
		})
	}
	return &Result{Tables: []*Table{qt, wt}}, nil
}

// GateQuery compares a fresh E-query run against a recorded baseline
// (BENCH_query.json) and returns the violations, empty when the gate
// passes. Portable invariants only:
//
//   - counted work must match the baseline exactly, row by row, and the
//     optimized row's must equal the reference row's at every n — work is
//     the static schedule's, so any drift means an executor changed
//     semantics;
//   - wave work must additionally be independent of P (the workers never
//     change what is computed, only who computes it);
//   - the optimized query must hold the speedup floor over the reference
//     relaxer at the largest n on the current machine;
//   - steady-state query allocations may not regress past the tolerance —
//     the pooled workspaces pin them to O(1) per call;
//   - the P=4 wave must scale past the floor, unless the runner cannot
//     physically scale (<2 CPUs).
//
// Wall-clock columns are recorded for humans and deliberately not gated.
func GateQuery(curr, base *Result) []string {
	var bad []string

	cq, bq := tableByID(curr, "E-query-sssp"), tableByID(base, "E-query-sssp")
	if cq == nil || bq == nil {
		return []string{"sssp table missing from current run or baseline"}
	}
	bad = append(bad, matchColumn(cq, bq, 2, "work", exactMatch)...)
	nCol, pCol, wCol, sCol := colIndex(cq, "n"), colIndex(cq, "path"), colIndex(cq, "work"), colIndex(cq, "speedup")
	refWork := map[string]string{}
	for _, row := range cq.Rows {
		if row[pCol] == "reference" {
			refWork[row[nCol]] = row[wCol]
		}
	}
	for _, row := range cq.Rows {
		if row[pCol] == "optimized" && row[wCol] != refWork[row[nCol]] {
			bad = append(bad, fmt.Sprintf("sssp n=%s optimized work %s != reference work %s", row[nCol], row[wCol], refWork[row[nCol]]))
		}
	}
	bad = append(bad, matchColumn(cq, bq, 2, "allocs", func(c, b float64) string {
		if limit := b*allocSlack + allocAbsSlack; c > limit {
			return fmt.Sprintf("%.0f allocs, baseline %.0f (limit %.0f)", c, b, limit)
		}
		return ""
	})...)
	bestN, bestSpeedup := -1.0, ""
	for _, row := range cq.Rows {
		if row[pCol] != "optimized" {
			continue
		}
		if n, err := strconv.ParseFloat(row[nCol], 64); err == nil && n > bestN {
			bestN, bestSpeedup = n, row[sCol]
		}
	}
	if s, err := strconv.ParseFloat(bestSpeedup, 64); err != nil || s < querySpeedupFloor {
		bad = append(bad, fmt.Sprintf("sssp n=%.0f optimized speedup %s below floor %.2f", bestN, bestSpeedup, querySpeedupFloor))
	}

	cw, bw := tableByID(curr, "E-query-wave"), tableByID(base, "E-query-wave")
	if cw == nil || bw == nil {
		return append(bad, "wave table missing from current run or baseline")
	}
	bad = append(bad, matchColumn(cw, bw, 3, "work", exactMatch)...)
	wCol = colIndex(cw, "work")
	byNK := map[string]string{}
	for _, row := range cw.Rows {
		key := rowKey(row, 2)
		if prev, ok := byNK[key]; ok && prev != row[wCol] {
			bad = append(bad, fmt.Sprintf("wave [%s] work differs across P: %s vs %s", key, prev, row[wCol]))
		}
		byNK[key] = row[wCol]
	}
	if runtime.NumCPU() >= 2 {
		pIdx, spIdx := colIndex(cw, "P"), colIndex(cw, "speedup")
		for _, row := range cw.Rows {
			if row[pIdx] != "4" {
				continue
			}
			if s, err := strconv.ParseFloat(row[spIdx], 64); err != nil || s < waveScalingFloor {
				bad = append(bad, fmt.Sprintf("wave P=4 speedup %s below floor %.2f", row[spIdx], waveScalingFloor))
			}
		}
	}
	return bad
}
