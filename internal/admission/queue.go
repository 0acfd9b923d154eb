// Package admission is the serving stack's overload-control toolkit: a
// priority queue with LIFO-within-class shedding, a brownout detector that
// decides when low-priority traffic should be answered degraded instead of
// refused, and a circuit breaker for operations that fail repeatedly.
//
// Everything here is deliberately clock-free or clock-injectable: the
// brownout detector is a pure function of the samples fed to it, and the
// breaker takes an injectable `now`, so every state transition is
// unit-testable with a deterministic schedule.
package admission

import "sync"

// Class is a request priority class. Lower values are more important.
type Class uint8

const (
	// Interactive is latency-sensitive user-facing traffic: dequeued first,
	// never browned out, shed only when nothing less important is queued.
	Interactive Class = iota
	// Batch is throughput traffic that tolerates delay and degraded
	// answers.
	Batch
	// Background is best-effort traffic: first to be shed or browned out.
	Background
	// NumClasses is the number of priority classes.
	NumClasses
)

// String returns the class's wire name, used as the priority label value in
// metric families.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Background:
		return "background"
	}
	return "unknown"
}

// PushResult is the admission decision for one Push.
type PushResult uint8

const (
	// Admitted: the item was enqueued within budget.
	Admitted PushResult = iota
	// AdmittedEvicted: the item was enqueued over budget by shedding the
	// youngest queued item of a strictly lower class (returned as victim).
	AdmittedEvicted
	// Rejected: the item was not enqueued — the budget is exhausted and no
	// lower class has anything to shed.
	Rejected
	// Closed: the queue has been closed; nothing is admitted.
	Closed
)

// cqueue is one class's pending items: a slice consumed from head so pops
// are O(1) and the backing array is reused across fill/drain cycles.
type cqueue[T any] struct {
	items []T
	head  int
}

func (c *cqueue[T]) len() int { return len(c.items) - c.head }

func (c *cqueue[T]) push(item T) { c.items = append(c.items, item) }

// popOldest removes the item that has waited longest (FIFO serve order).
func (c *cqueue[T]) popOldest() T {
	item := c.items[c.head]
	var zero T
	c.items[c.head] = zero // release the reference
	c.head++
	if c.head == len(c.items) {
		c.items, c.head = c.items[:0], 0
	}
	return item
}

// popYoungest removes the most recently pushed item (LIFO shed order).
func (c *cqueue[T]) popYoungest() T {
	last := len(c.items) - 1
	item := c.items[last]
	var zero T
	c.items[last] = zero
	c.items = c.items[:last]
	if c.head == len(c.items) {
		c.items, c.head = c.items[:0], 0
	}
	return item
}

// Queue is a priority admission queue: one FIFO per class, served in class
// order (all Interactive before any Batch before any Background), with
// LIFO-within-class shedding — when an arrival must displace queued work,
// the victim is the *youngest* item of the lowest non-empty class, the one
// that has invested the least waiting time.
//
// The queue has one consumer (the server's dispatcher) and many producers.
// All methods are safe for concurrent use.
type Queue[T any] struct {
	mu      sync.Mutex
	classes [NumClasses]cqueue[T]
	size    int
	closed  bool
	// wake is a 1-buffered signal to the single consumer; it never closes
	// (Close signals through it instead), so producers can always do a
	// non-blocking send.
	wake chan struct{}
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{wake: make(chan struct{}, 1)}
}

// Push offers item for admission under the given queue budget (the number
// of items that may be queued right now — the caller derives it from its
// admission window minus in-service work). Within budget the item is
// enqueued. Over budget, the youngest item of the lowest non-empty class
// *strictly below* c is evicted to make room (AdmittedEvicted, victim
// returned for the caller to answer); without such a victim the push is
// Rejected. A closed queue admits nothing.
func (q *Queue[T]) Push(item T, c Class, budget int) (PushResult, T) {
	var zero T
	if c >= NumClasses {
		c = NumClasses - 1
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Closed, zero
	}
	if q.size < budget {
		q.classes[c].push(item)
		q.size++
		q.mu.Unlock()
		q.signal()
		return Admitted, zero
	}
	// Shed from the back: walk classes less important than the arrival,
	// least important first, and take the youngest entry of the first one
	// that has any.
	for victimClass := NumClasses - 1; victimClass > c; victimClass-- {
		if q.classes[victimClass].len() == 0 {
			continue
		}
		victim := q.classes[victimClass].popYoungest()
		q.classes[c].push(item)
		q.mu.Unlock()
		q.signal()
		return AdmittedEvicted, victim
	}
	q.mu.Unlock()
	return Rejected, zero
}

// signal nudges the consumer; the 1-buffer coalesces bursts.
func (q *Queue[T]) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// TryPop removes the next item in serve order (class order, FIFO within a
// class) without blocking. ok is false when the queue is empty.
func (q *Queue[T]) TryPop() (item T, c Class, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *Queue[T]) popLocked() (item T, c Class, ok bool) {
	for cl := Class(0); cl < NumClasses; cl++ {
		if q.classes[cl].len() > 0 {
			q.size--
			return q.classes[cl].popOldest(), cl, true
		}
	}
	var zero T
	return zero, 0, false
}

// PopWait blocks until an item is available (returning it in serve order)
// or the queue is closed AND drained, which is the consumer's signal to
// exit. Single-consumer only.
func (q *Queue[T]) PopWait() (item T, c Class, ok bool) {
	for {
		q.mu.Lock()
		if item, c, ok = q.popLocked(); ok {
			q.mu.Unlock()
			return item, c, true
		}
		if q.closed {
			q.mu.Unlock()
			var zero T
			return zero, 0, false
		}
		q.mu.Unlock()
		<-q.wake
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Close stops admission. Items already queued remain poppable — the
// consumer drains them before PopWait reports closed. Returns true on the
// first call.
func (q *Queue[T]) Close() bool {
	q.mu.Lock()
	first := !q.closed
	q.closed = true
	q.mu.Unlock()
	if first {
		q.signal()
	}
	return first
}

// IsClosed reports whether Close has been called.
func (q *Queue[T]) IsClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}
