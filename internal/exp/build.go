package exp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sepsp/internal/augment"
	"sepsp/internal/matrix"
	"sepsp/internal/pram"
)

// speedupFloor is the portable part of the E-build gate: the blocked+delta
// closure kernel must beat the naive row-parallel kernel by at least this
// factor on a 256×256 closure. The recorded baseline machine reaches >2x
// (the acceptance target of the cache-blocking work, see DESIGN.md "Build
// performance"); the gate demands only a machine-independent floor so
// runners with different cache hierarchies do not flap.
const speedupFloor = 1.3

// prepSpeedupFloor is the E-build gate's floor on P=1 prep wall / P=4 prep
// wall for every n=16384 build: adding workers must not slow a build down.
const prepSpeedupFloor = 1.0

// allocSlack is the multiplicative tolerance the gate allows on build-path
// allocation counts relative to the recorded baseline; allocAbsSlack absorbs
// scheduler/GC noise on small counts.
const (
	allocSlack    = 1.5
	allocAbsSlack = 10_000
)

// Kernel timing mirrors the testing.B harness: one warmup closure, then
// kernelBatch closures timed together (amortizing GC like b.N iterations
// do), best ns/op of kernelReps batches.
const (
	kernelReps  = 3
	kernelBatch = 5
)

// kernelMatrix mirrors the matrix-package benchmark input: ~30% finite
// entries drawn deterministically — dense enough that the closure runs its
// full doubling schedule, sparse enough that +Inf panel skipping matters.
func kernelMatrix(n int) *matrix.Dense {
	rng := rand.New(rand.NewSource(42))
	d := matrix.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.3 {
				d.Set(i, j, 0.1+rng.Float64()*(10-0.1))
			}
		}
	}
	return d
}

// timeClosure reports the best per-closure wall clock of src over
// kernelReps batches of kernelBatch closures each (single thread, one
// warmup closure first), plus the counted work of one closure (identical
// across reps and kernels by construction — the gate asserts it).
func timeClosure(src *matrix.Dense, blocked bool) (time.Duration, int64, error) {
	n := src.R
	d := matrix.New(n, n)
	ws := matrix.NewWorkspace()
	one := func(st *pram.Stats) error {
		copy(d.A, src.A)
		if blocked {
			return matrix.ClosureWS(d, ws, pram.Sequential, st)
		}
		return matrix.ClosureNaive(d, pram.Sequential, st)
	}
	st := &pram.Stats{}
	if err := one(st); err != nil { // warmup; also records counted work
		return 0, 0, err
	}
	work := st.Work()
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < kernelReps; rep++ {
		runtime.GC()
		start := time.Now()
		for i := 0; i < kernelBatch; i++ {
			if err := one(nil); err != nil {
				return 0, 0, err
			}
		}
		if el := time.Since(start) / kernelBatch; el < best {
			best = el
		}
	}
	return best, work, nil
}

// BuildExperiment (E-build) measures the index-build path end to end: the
// min-plus closure kernel in isolation (blocked+delta vs the naive
// row-parallel reference, single thread), and whole Alg41/Alg43 runs with
// prep wall clock, kernel triple rate (counted (i,k,j) triples per second —
// the min-plus analogue of a GFLOP rate), counted work, and allocation
// counts. BENCH_build.json records the output of this experiment; GateBuild
// compares a fresh run against it (`make bench-build`).
func BuildExperiment(_ *pram.Executor, scale int) (*Result, error) {
	if scale < 1 {
		scale = 1
	}
	kt := &Table{
		ID:     "E-build-kernel",
		Title:  "Min-plus closure kernel: blocked+delta vs naive row-parallel (single thread)",
		Header: []string{"n", "kernel", "time/closure", "Mtriples/s", "work", "speedup"},
		Notes: []string{
			fmt.Sprintf("best of %d batches of %d closures; gate: counted work exact vs baseline, n=256 speedup >= %.2f (baseline machine target: >= 2x)", kernelReps, kernelBatch, speedupFloor),
		},
	}
	for _, n := range []int{256, 512} {
		src := kernelMatrix(n)
		tN, workN, err := timeClosure(src, false)
		if err != nil {
			return nil, err
		}
		tB, workB, err := timeClosure(src, true)
		if err != nil {
			return nil, err
		}
		kt.Rows = append(kt.Rows,
			[]string{d(int64(n)), "naive", tN.String(), rate(workN, tN), d(workN), "-"},
			[]string{d(int64(n)), "blocked+delta", tB.String(), rate(workB, tB), d(workB),
				fmt.Sprintf("%.2f", tN.Seconds()/tB.Seconds())},
		)
	}

	pt := &Table{
		ID:     "E-build-prep",
		Title:  "Index build throughput: prep wall clock, triple rate, allocations, speedup",
		Header: []string{"n", "alg", "P", "prep wall", "Mtriples/s", "work", "allocs", "speedup"},
		Notes: []string{
			"grid workload (mu=1/2), seed 42; allocs = runtime.MemStats.Mallocs delta across the build",
			"speedup = P=1 prep wall / P=4 prep wall for the same n and alg",
			fmt.Sprintf("gate: counted work exact vs baseline, allocs <= %.1fx baseline + %d, n=16384 speedup >= %.2f", allocSlack, allocAbsSlack, prepSpeedupFloor),
		},
	}
	for _, n := range []int{4096 * scale, 16384 * scale} {
		wl, err := MuWorkload(0.5, n, 42)
		if err != nil {
			return nil, err
		}
		for _, alg := range []string{"alg41", "alg43"} {
			run := augment.Alg41
			if alg == "alg43" {
				run = augment.Alg43
			}
			var serial time.Duration
			for _, p := range []int{1, 4} {
				ex := pram.NewExecutor(p)
				st := &pram.Stats{}
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				start := time.Now()
				if _, err := run(wl.G, wl.Tree, augment.Config{Ex: ex, Stats: st}); err != nil {
					return nil, err
				}
				el := time.Since(start)
				runtime.ReadMemStats(&m1)
				speedup := "-"
				if p == 1 {
					serial = el
				} else {
					speedup = fmt.Sprintf("%.2f", serial.Seconds()/el.Seconds())
				}
				pt.Rows = append(pt.Rows, []string{
					d(int64(wl.G.N())), alg, d(int64(p)),
					el.Round(time.Microsecond).String(),
					rate(st.Work(), el),
					d(st.Work()),
					d(int64(m1.Mallocs - m0.Mallocs)),
					speedup,
				})
			}
		}
	}
	return &Result{Tables: []*Table{kt, pt}}, nil
}

// rate renders counted triples/second in millions: the min-plus kernel's
// GFLOP-equivalent throughput figure.
func rate(work int64, el time.Duration) string {
	if el <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(work)/el.Seconds()/1e6)
}

// GateBuild compares a fresh E-build run against a recorded baseline
// (BENCH_build.json) and returns the violations, empty when the gate
// passes. Portable invariants only:
//
//   - counted work must match the baseline exactly, row by row — the counted
//     model is deterministic, so any drift means the kernels changed
//     semantics, not just speed;
//   - the blocked closure kernel must hold the n=256 speedup floor on the
//     current machine;
//   - build-path allocation counts may not regress past the tolerance —
//     the zero-alloc build work pins them to O(tree-nodes);
//   - every n=16384 build must hold the prep speedup floor: P=4 workers
//     may not be slower than one.
//
// Wall-clock and rate columns are recorded for humans and deliberately not
// gated: they do not transfer between machines.
func GateBuild(curr, base *Result) []string {
	var bad []string

	ck, bk := tableByID(curr, "E-build-kernel"), tableByID(base, "E-build-kernel")
	if ck == nil || bk == nil {
		return []string{"kernel table missing from current run or baseline"}
	}
	bad = append(bad, matchColumn(ck, bk, 2, "work", exactMatch)...)
	sCol, nCol, kCol := colIndex(ck, "speedup"), colIndex(ck, "n"), colIndex(ck, "kernel")
	for _, row := range ck.Rows {
		if row[nCol] != "256" || row[kCol] != "blocked+delta" {
			continue
		}
		s, err := strconv.ParseFloat(row[sCol], 64)
		if err != nil || s < speedupFloor {
			bad = append(bad, fmt.Sprintf("kernel n=256 blocked speedup %s below floor %.2f", row[sCol], speedupFloor))
		}
	}

	cp, bp := tableByID(curr, "E-build-prep"), tableByID(base, "E-build-prep")
	if cp == nil || bp == nil {
		return append(bad, "prep table missing from current run or baseline")
	}
	bad = append(bad, matchColumn(cp, bp, 3, "work", exactMatch)...)
	bad = append(bad, matchColumn(cp, bp, 3, "allocs", func(c, b float64) string {
		if limit := b*allocSlack + allocAbsSlack; c > limit {
			return fmt.Sprintf("%.0f allocs, baseline %.0f (limit %.0f)", c, b, limit)
		}
		return ""
	})...)
	sCol, nCol, pCol, aCol := colIndex(cp, "speedup"), colIndex(cp, "n"), colIndex(cp, "P"), colIndex(cp, "alg")
	for _, row := range cp.Rows {
		if row[nCol] != "16384" || row[pCol] != "4" {
			continue
		}
		s, err := strconv.ParseFloat(row[sCol], 64)
		if err != nil || s < prepSpeedupFloor {
			bad = append(bad, fmt.Sprintf("prep n=16384 %s speedup %s below floor %.2f", row[aCol], row[sCol], prepSpeedupFloor))
		}
	}
	return bad
}

func exactMatch(c, b float64) string {
	if c != b {
		return fmt.Sprintf("%.0f, baseline %.0f (counted work must match exactly)", c, b)
	}
	return ""
}

// matchColumn checks column col of every baseline row against the matching
// current row (rows keyed by their first keyCols cells) using check, which
// returns a non-empty description on violation.
func matchColumn(curr, base *Table, keyCols int, col string, check func(c, b float64) string) []string {
	var bad []string
	cCol, bCol := colIndex(curr, col), colIndex(base, col)
	if cCol < 0 || bCol < 0 {
		return []string{fmt.Sprintf("%s: column %q missing", base.ID, col)}
	}
	byKey := make(map[string][]string)
	for _, row := range curr.Rows {
		byKey[rowKey(row, keyCols)] = row
	}
	for _, brow := range base.Rows {
		key := rowKey(brow, keyCols)
		crow, ok := byKey[key]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s[%s]: row missing from current run", base.ID, key))
			continue
		}
		c, errC := strconv.ParseFloat(crow[cCol], 64)
		b, errB := strconv.ParseFloat(brow[bCol], 64)
		if errC != nil || errB != nil {
			bad = append(bad, fmt.Sprintf("%s[%s] %s: unparseable (%q vs %q)", base.ID, key, col, crow[cCol], brow[bCol]))
			continue
		}
		if msg := check(c, b); msg != "" {
			bad = append(bad, fmt.Sprintf("%s[%s] %s: %s", base.ID, key, col, msg))
		}
	}
	return bad
}

func tableByID(r *Result, id string) *Table {
	if r == nil {
		return nil
	}
	for _, t := range r.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

func colIndex(t *Table, name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

func rowKey(row []string, keyCols int) string {
	if keyCols > len(row) {
		keyCols = len(row)
	}
	return strings.Join(row[:keyCols], "/")
}
