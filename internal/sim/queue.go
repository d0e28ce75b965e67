package sim

// event is a scheduled call h.HandleEvent(at, arg). Events fire in
// (at, prio, seq) order, which makes simulations deterministic
// regardless of insertion order: seq is assigned monotonically by the
// queue at insertion. An event belongs to the queue and returns to its
// free list the moment it fires, so steady-state scheduling performs
// zero heap allocations.
type event struct {
	at   Ticks
	prio int32 // lower fires first among equal times (e.g. node id)
	h    Handler
	arg  uint64
	seq  uint64
}

// Handler is a pre-bound event callback: one long-lived receiver
// dispatched with a per-event uint64 argument. The hot schedulers (the
// machine run loop driving the CPU, port, and memory-system models)
// implement it once and pass node ids as arg, which avoids allocating a
// fresh closure for every scheduled event.
type Handler interface {
	HandleEvent(now Ticks, arg uint64)
}

// Queue is a deterministic event queue (4-ary heap) with a free list
// of recycled events. The 4-ary layout halves the number of levels a
// sift-down traverses compared to a binary heap, so the cache-missing
// pointer chases on dispatch shrink while the (at, prio, seq) dispatch
// order is unchanged.
//
// An event may be scheduled below Now. A shard queue in the windowed
// engine legitimately receives such events: a barrier phase resumes a
// node at the completion time of its deferred memory operation, which
// can precede the latest event the shard already dispatched this
// window. Dispatch order within a round is still (at, prio, seq);
// causality across rounds is the engine's contract, not the queue's,
// and Now regresses to the dispatched event's time in that case.
type Queue struct {
	heap    []*event
	free    []*event // recycled events
	nextSeq uint64
	now     Ticks
	// stats counters are plain fields: a queue belongs to exactly one
	// machine run (one goroutine), and atomic increments here would sit
	// on the simulation's hottest path.
	stats QueueStats
}

// QueueStats counts event-queue activity.
type QueueStats struct {
	// Scheduled is the number of events inserted.
	Scheduled uint64
	// Fired is the number of events dispatched.
	Fired uint64
	// Recycled is the number of events reused from the free list rather
	// than freshly allocated — the zero-allocation path.
	Recycled uint64
}

// Add accumulates o into s.
func (s *QueueStats) Add(o QueueStats) {
	s.Scheduled += o.Scheduled
	s.Fired += o.Fired
	s.Recycled += o.Recycled
}

// Stats returns the queue's accumulated event counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// NewQueue returns an empty event queue at time zero.
func NewQueue() *Queue { return &Queue{} }

// Now returns the time of the most recently dispatched event.
func (q *Queue) Now() Ticks { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// ScheduleFn enqueues h.HandleEvent(at, arg) using a recycled event
// when one is available.
func (q *Queue) ScheduleFn(at Ticks, prio int32, h Handler, arg uint64) {
	var e *event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		q.stats.Recycled++
	} else {
		e = new(event)
	}
	*e = event{at: at, prio: prio, h: h, arg: arg, seq: q.nextSeq}
	q.nextSeq++
	q.stats.Scheduled++
	q.push(e)
}

// PeekAt returns the time of the earliest pending event without
// dispatching it. ok is false when the queue is empty.
func (q *Queue) PeekAt() (at Ticks, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// dispatch pops and fires the head event. The event is recycled onto
// the free list before its handler runs, so a handler that immediately
// reschedules reuses the very event that woke it.
func (q *Queue) dispatch() {
	e := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	q.down(0)
	q.now = e.at
	q.stats.Fired++
	at, h, arg := e.at, e.h, e.arg
	e.h = nil
	q.free = append(q.free, e)
	h.HandleEvent(at, arg)
}

// Step dispatches the earliest event. It returns false when the queue is
// empty.
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	q.dispatch()
	return true
}

// StepBatch dispatches every event scheduled at the earliest pending
// tick and returns how many fired (0 when the queue is empty). The run
// loop uses it to batch same-tick dispatches: one PeekAt per tick
// instead of a full Step round-trip per event, and the common
// same-tick cascade (a handler scheduling more work at the current
// time) stays inside the loop.
func (q *Queue) StepBatch() int {
	if len(q.heap) == 0 {
		return 0
	}
	at := q.heap[0].at
	n := 0
	for len(q.heap) > 0 && q.heap[0].at == at {
		q.dispatch()
		n++
	}
	return n
}

// less orders events by (at, prio, seq).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (q *Queue) push(e *event) {
	q.heap = append(q.heap, e)
	q.up(len(q.heap) - 1)
}

// arity is the heap branching factor. Four children per node means a
// sift traverses half the levels of a binary heap; with children
// adjacent in one slice region, the extra comparisons per level hit
// the same cache lines the first child already pulled in.
const arity = 4

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / arity
		if !less(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		last := first + arity
		if last > n {
			last = n
		}
		m := first
		for c := first + 1; c < last; c++ {
			if less(q.heap[c], q.heap[m]) {
				m = c
			}
		}
		if !less(q.heap[m], q.heap[i]) {
			break
		}
		q.heap[i], q.heap[m] = q.heap[m], q.heap[i]
		i = m
	}
}
