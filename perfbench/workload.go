package main

import (
	"fmt"
	"math/rand"
	"time"

	"sepsp"
	"sepsp/internal/graph"
	"sepsp/internal/graph/gen"
)

// workload is one benchmark input and how it is driven.
type workload struct {
	name string
	why  string
	run  func(cfg config) (*result, error)
}

var workloads = []*workload{
	{
		name: "serve-hot-reweight",
		why:  "open loop, Poisson 1000 req/s, Zipf 1.3 sources, cache of 1/4 of all vectors, a reweight each second: loads distcache, admission, server, small core waves, manager, augment; bypasses pram lanes",
		run:  serveHotReweight.run,
	},
	{
		name: "batch-cube",
		why:  "closed loop, one caller, waves of 32 distinct sources on a 16^3 grid: loads separator and augment set-up, the core batched kernel and pram lanes; bypasses admission, server, distcache, manager",
		run:  batchCube.run,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// weightSeeds fix the two weight sets of every workload's graph, so the
// graph, and every count measured on it, is the same on every run; --seed
// picks only what is asked of it.
var weightSeeds = []int64{11, 12}

// inputs is a workload's graph: one skeleton with two weight sets, the
// first in force at set-up, and its lattice coordinates for the grid
// decomposition.
type inputs struct {
	coords  [][]int
	sets    []*graph.Digraph
	public  []*sepsp.Graph
	counted *counts // what the first build counted; every later one must match
}

// gridInputs builds the len(dims)-dimensional grid with independent
// uniform [0.5, 2) weights on both directions of every lattice edge.
func gridInputs(dims []int) *inputs {
	in := &inputs{}
	for _, seed := range weightSeeds {
		grid := gen.NewGrid(dims, gen.UniformWeights(0.5, 2), rand.New(rand.NewSource(seed)))
		in.coords = grid.Coord
		pg := sepsp.NewGraph(grid.G.N())
		grid.G.Edges(func(u, v int, w float64) bool {
			pg.AddEdge(u, v, w)
			return true
		})
		in.sets = append(in.sets, grid.G)
		in.public = append(in.public, pg)
	}
	return in
}

func (in *inputs) n() int { return in.sets[0].N() }

// buildOptions are the Index options every workload uses.
func (in *inputs) buildOptions(cfg config) *sepsp.Options {
	return &sepsp.Options{Decomposition: sepsp.GridDecomposition(in.coords), Workers: cfg.procs}
}

// counts are the counted (not timed) properties of a build, which must
// repeat exactly.
type counts struct {
	prepWork, shortcuts, height, maxSep, workPerSource int64
}

func countsOf(st sepsp.Stats) counts {
	return counts{st.PrepWork, int64(st.Shortcuts), int64(st.TreeHeight), int64(st.MaxSeparator), st.QueryWork}
}

// setUp builds the index reps times from the in-memory graph (and, when
// newServer is non-nil, a server over it), returning the last build and
// the seconds each set-up took. Every build of a run must count the same
// work.
func setUp(cfg config, in *inputs, reps int, tr *tracer, newServer func(*sepsp.Index) (*sepsp.Server, error)) (*sepsp.Index, *sepsp.Server, sample, error) {
	var (
		ix    *sepsp.Index
		srv   *sepsp.Server
		times sample
	)
	for r := 0; r < reps; r++ {
		if srv != nil {
			srv.Close()
		}
		root := tr.begin("setup", -1, -1)
		start := time.Now()
		var err error
		if _, err = tr.timed("sepsp.Build", root, func() error {
			ix, err = sepsp.Build(in.public[0], in.buildOptions(cfg))
			return err
		}); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if newServer != nil {
			if _, err = tr.timed("sepsp.NewServer", root, func() error {
				srv, err = newServer(ix)
				return err
			}); err != nil {
				return nil, nil, nil, fmt.Errorf("set-up: %w", err)
			}
		}
		times = append(times, time.Since(start).Seconds())
		tr.end(root)
		c := countsOf(ix.Stats())
		if in.counted == nil {
			in.counted = &c
		} else if c != *in.counted {
			return nil, nil, nil, fmt.Errorf("set-up: counted work differs between builds of one graph: %+v vs %+v", c, *in.counted)
		}
	}
	return ix, srv, times, nil
}

// setupMetric reports the median set-up time.
func setupMetric(times sample, what string) metric {
	return metric{name: "setup_s", value: times.median(), unit: "s", n: len(times), note: "median of set-ups: " + what}
}
