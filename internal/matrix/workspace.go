package matrix

import (
	"math"
	"sync"
	"sync/atomic"
)

// Workspace is an arena of reusable Dense backing buffers for the build
// path's kernel suite. One augmentation run (Alg 4.1 / Alg 4.3) threads a
// single Workspace through all of its per-node products, closures, and leaf
// scratch, so the run performs O(tree-nodes) slab allocations instead of one
// allocation per min-plus product or per path-doubling step.
//
// Buffers are pooled by power-of-two capacity class, not exact shape: a slab
// released by a 31×31 separator closure is reslices-compatible with the
// 17×42 rectangular product of a sibling node, so reuse survives the highly
// irregular shape mix of a real decomposition tree. Get hands out a Dense
// whose contents are unspecified — every ...Into kernel fully overwrites its
// destination — and GetInf clears to +Inf for callers that relax into the
// buffer incrementally.
//
// A Workspace is safe for concurrent use: tree nodes of one level are
// processed in parallel and share the run's workspace. A nil *Workspace is
// also valid and degrades to plain allocation (Get allocates, Put discards),
// so optional call sites need no branching.
type Workspace struct {
	mu     sync.Mutex
	free   map[int][]*Dense // capacity class (power of two) -> free matrices
	reuses atomic.Int64     // Gets served from the free lists
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[int][]*Dense)}
}

// capClass returns the power-of-two capacity class holding n elements.
func capClass(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// Get returns an r×c matrix with unspecified contents, reusing a pooled slab
// when one of sufficient capacity class is free.
func (w *Workspace) Get(r, c int) *Dense {
	n := r * c
	if w == nil {
		return &Dense{R: r, C: c, A: make([]float64, n)}
	}
	class := capClass(n)
	w.mu.Lock()
	list := w.free[class]
	if len(list) > 0 {
		d := list[len(list)-1]
		w.free[class] = list[:len(list)-1]
		w.mu.Unlock()
		w.reuses.Add(1)
		d.R, d.C = r, c
		d.A = d.A[:n]
		return d
	}
	w.mu.Unlock()
	return &Dense{R: r, C: c, A: make([]float64, n, class)}
}

// GetInf returns an r×c matrix with every entry +Inf.
func (w *Workspace) GetInf(r, c int) *Dense {
	d := w.Get(r, c)
	inf := math.Inf(1)
	for i := range d.A {
		d.A[i] = inf
	}
	return d
}

// GetSquare returns an n×n matrix with +Inf off-diagonal and 0 diagonal.
func (w *Workspace) GetSquare(n int) *Dense {
	d := w.GetInf(n, n)
	for i := 0; i < n; i++ {
		d.A[i*n+i] = 0
	}
	return d
}

// Put releases d back to the workspace for reuse. The caller must not touch
// d afterwards. Put accepts matrices from any source (capacity is classified
// conservatively), and a nil receiver or nil matrix is a no-op.
func (w *Workspace) Put(d *Dense) {
	if w == nil || d == nil || cap(d.A) == 0 {
		return
	}
	// Classify by the largest power of two not exceeding the capacity, so a
	// Get of that class can always reslice within cap.
	class := 1
	for class<<1 <= cap(d.A) {
		class <<= 1
	}
	d.A = d.A[:0]
	w.mu.Lock()
	w.free[class] = append(w.free[class], d)
	w.mu.Unlock()
}

// Reuses returns the number of Gets served from the free lists.
func (w *Workspace) Reuses() int64 {
	if w == nil {
		return 0
	}
	return w.reuses.Load()
}
