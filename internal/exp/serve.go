package exp

import (
	"context"
	"fmt"
	"time"

	"sepsp/internal/baseline"
	"sepsp/internal/core"
	"sepsp/internal/pram"
)

// ServeExperiment measures the serving substrate that sepsp.Server's
// dispatcher runs: the multi-source wave (core.SourcesBatchedContext, a
// deduplicated fan-out of solo queries across the executor's
// workers). It reports, per wave size k, the wall-clock time and
// counted-model work per served source — what the Server's request
// coalescing buys is the spread of a wave's sources over the workers — with
// single-source Dijkstra as the serving-cost reference point. Work/source is deterministic; the
// time/source column is the machine-local perf baseline BENCH_serve.json
// records.
func ServeExperiment(ex *pram.Executor, scale int) (*Table, error) {
	if scale < 1 {
		scale = 1
	}
	const requests = 128
	t := &Table{
		ID:     "E-serve",
		Title:  "Serving waves: per-source cost of batched SSSP vs wave size",
		Header: []string{"n", "method", "wave k", "time/source", "work/source"},
		Notes: []string{
			fmt.Sprintf("%d requests per row; sepsp.Server coalesces admitted requests into waves of MaxBatch sources", requests),
		},
	}
	for _, n := range []int{1024 * scale, 4096 * scale} {
		wl, err := MuWorkload(0.5, n, 17)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(wl.G, wl.Tree, core.Config{Ex: ex})
		if err != nil {
			return nil, err
		}
		nn := wl.G.N()
		srcs := make([]int, requests)
		for i := range srcs {
			srcs[i] = (i * 37) % nn
		}
		for _, k := range []int{1, 4, 8, 16} {
			var work int64
			start := time.Now()
			for i := 0; i+k <= len(srcs); i += k {
				st := &pram.Stats{}
				if _, err := eng.SourcesBatchedContext(context.Background(), srcs[i:i+k], st); err != nil {
					return nil, err
				}
				work += st.Work()
			}
			served := len(srcs) - len(srcs)%k
			per := time.Since(start) / time.Duration(served)
			t.Rows = append(t.Rows, []string{
				d(int64(nn)), "batched wave", d(int64(k)), per.String(), d(work / int64(served)),
			})
		}
		start := time.Now()
		for _, s := range srcs {
			if _, err := baseline.Dijkstra(wl.G, s, nil); err != nil {
				return nil, err
			}
		}
		per := time.Since(start) / time.Duration(len(srcs))
		t.Rows = append(t.Rows, []string{
			d(int64(nn)), "dijkstra (fallback path)", "1", per.String(), "-",
		})
	}
	return t, nil
}
