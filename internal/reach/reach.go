// Package reach implements the paper's reachability (transitive-closure)
// results: the boolean-semiring instantiation of the separator engine, where
// Algorithm 4.3's doubling step is a fast boolean matrix product
// (˜O(M(n^μ)) preprocessing work, Section 1/4/5), queries are the Section
// 3.2 schedule with OR-relaxations, and the dense baselines are BFS and
// global bitset squaring.
package reach

import (
	"sepsp/internal/augment"
	"sepsp/internal/bitmat"
	"sepsp/internal/core"
	"sepsp/internal/graph"
	"sepsp/internal/pram"
	"sepsp/internal/separator"
)

// Engine is a preprocessed reachability oracle.
type Engine struct {
	g        *graph.Digraph
	tree     *separator.Tree
	aug      *augment.Result
	schedule *core.Schedule
	ex       *pram.Executor
}

// NewEngine preprocesses g for reachability queries using the boolean
// Algorithm 4.3.
func NewEngine(g *graph.Digraph, tree *separator.Tree, ex *pram.Executor, st *pram.Stats) (*Engine, error) {
	if ex == nil {
		ex = pram.Sequential
	}
	res, err := augment.Reach43(g, tree, augment.Config{Ex: ex, Stats: st})
	if err != nil {
		return nil, err
	}
	return &Engine{
		g:        g,
		tree:     tree,
		aug:      res,
		schedule: core.NewSchedule(tree, g.EdgeList(), res.Edges),
		ex:       ex,
	}, nil
}

// Augmentation returns the boolean E+ (zero-weight edges).
func (e *Engine) Augmentation() *augment.Result { return e.aug }

// Schedule returns the query phase schedule.
func (e *Engine) Schedule() *core.Schedule { return e.schedule }

// From returns the set of vertices reachable from src, as a boolean slice.
// One query costs Schedule.WorkPerSource() OR-relaxations over
// Schedule.Phases() phases. Each phase walks its arena bucket run by run: a
// reached head marks every target of its run. That is the per-edge OR in
// arena order, because a run's own edges can only mark its head when it is
// already reached.
func (e *Engine) From(src int, st *pram.Stats) []bool {
	reached := make([]bool, e.g.N())
	reached[src] = true
	n := e.schedule.Phases()
	var work int64
	for i := 0; i < n; i++ {
		_, b := e.schedule.PhaseAt(i)
		to, lo := b.To(), int32(0)
		for _, run := range b.Runs() {
			if reached[run.H] {
				for _, v := range to[lo:run.Hi] {
					reached[v] = true
				}
			}
			lo = run.Hi
		}
		work += int64(b.Edges())
	}
	st.AddWork(work)
	st.AddRounds(int64(n))
	return reached
}

// Sources computes reachability from several sources in parallel.
func (e *Engine) Sources(srcs []int, st *pram.Stats) [][]bool {
	out := make([][]bool, len(srcs))
	e.ex.For(len(srcs), func(i int) {
		out[i] = e.From(srcs[i], st)
	})
	return out
}

// BFSFrom is the linear-work sequential baseline.
func BFSFrom(g *graph.Digraph, src int, st *pram.Stats) []bool {
	seen := make([]bool, g.N())
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Out(v, func(to int, _ float64) bool {
			st.AddWork(1)
			if !seen[to] {
				seen[to] = true
				queue = append(queue, to)
			}
			return true
		})
	}
	return seen
}

// TransitiveClosure computes the full closure by global bitset squaring —
// the M(n)-work method whose cost the separator engine avoids.
func TransitiveClosure(g *graph.Digraph, ex *pram.Executor, st *pram.Stats) *bitmat.Matrix {
	adj := bitmat.FromAdjacency(g.N(), g.Edges)
	return bitmat.Closure(adj, ex, st)
}
