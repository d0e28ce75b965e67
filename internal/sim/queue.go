package sim

// Event is a scheduled callback. Events fire in (At, Prio, Seq) order,
// which makes simulations deterministic regardless of insertion order:
// Seq is assigned monotonically by the queue at insertion.
//
// Events come in two forms. Schedule binds a closure and returns a
// handle the caller may Cancel or Reschedule; those events are owned by
// the caller and are never recycled. ScheduleFn binds a pre-registered
// Handler plus a uint64 argument and returns no handle; those events
// are owned by the queue and return to its free list the moment they
// fire, so steady-state scheduling performs zero heap allocations.
type Event struct {
	At   Ticks
	Prio int32 // lower fires first among equal times (e.g. node id)
	Fn   func(now Ticks)

	h   Handler // pre-bound form; nil for closure events
	arg uint64

	seq    uint64
	index  int  // heap index, -1 when not queued
	pooled bool // owned by the queue's free list (ScheduleFn form)
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
// of recycled events for the allocation-free ScheduleFn fast path. The
// 4-ary layout halves the number of levels a sift-down traverses
// compared to a binary heap, so the cache-missing pointer chases on
// dispatch shrink while the (At, Prio, seq) dispatch order is
// unchanged.
type Queue struct {
	heap    []*Event
	free    []*Event // recycled ScheduleFn events
	nextSeq uint64
	now     Ticks
	relaxed bool
	// stats counters are plain fields: a queue belongs to exactly one
	// machine run (one goroutine), and atomic increments here would sit
	// on the simulation's hottest path.
	stats QueueStats
}

// QueueStats counts event-queue activity.
type QueueStats struct {
	// Scheduled is the number of events inserted (both the closure and
	// the pooled ScheduleFn forms).
	Scheduled uint64
	// Fired is the number of events dispatched.
	Fired uint64
	// Recycled is the number of pooled events reused from the free
	// list rather than freshly allocated — the zero-allocation path.
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

// SetRelaxed switches off the scheduled-in-the-past panic. A shard
// queue in the windowed parallel engine legitimately receives events
// below its dispatch horizon: a barrier phase resumes a node at the
// completion time of its deferred memory operation, which can precede
// the latest event the shard already dispatched this window. Dispatch
// order within a round is still (At, Prio, seq); causality across
// rounds is the engine's contract, not the queue's. Now regresses to
// the dispatched event's time in that case.
func (q *Queue) SetRelaxed(on bool) { q.relaxed = on }

// Now returns the time of the most recently dispatched event.
func (q *Queue) Now() Ticks { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Schedule enqueues fn to run at time at with priority prio. Scheduling
// in the past (at < Now) is a programming error and panics: it would
// silently break causality in the contention models.
func (q *Queue) Schedule(at Ticks, prio int32, fn func(now Ticks)) *Event {
	if at < q.now && !q.relaxed {
		panic("sim: event scheduled in the past")
	}
	e := &Event{At: at, Prio: prio, Fn: fn, seq: q.nextSeq, index: -1}
	q.nextSeq++
	q.stats.Scheduled++
	q.push(e)
	return e
}

// ScheduleFn enqueues h.HandleEvent(at, arg) using a recycled Event
// when one is available. No handle is returned: the event belongs to
// the queue and is reclaimed when it fires, so callers must not need to
// Cancel it. This is the zero-allocation path the simulation hot loop
// uses.
func (q *Queue) ScheduleFn(at Ticks, prio int32, h Handler, arg uint64) {
	if at < q.now && !q.relaxed {
		panic("sim: event scheduled in the past")
	}
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*e = Event{At: at, Prio: prio, h: h, arg: arg, seq: q.nextSeq, index: -1, pooled: true}
		q.stats.Recycled++
	} else {
		e = &Event{At: at, Prio: prio, h: h, arg: arg, seq: q.nextSeq, index: -1, pooled: true}
	}
	q.nextSeq++
	q.stats.Scheduled++
	q.push(e)
}

// Cancel removes a pending event. It is a no-op if the event already
// fired or was cancelled.
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	q.remove(e.index)
}

// Reschedule moves a pending event to a new time (or re-inserts a fired
// one).
func (q *Queue) Reschedule(e *Event, at Ticks) {
	if at < q.now && !q.relaxed {
		panic("sim: event rescheduled into the past")
	}
	if e.index >= 0 {
		q.remove(e.index)
	}
	e.At = at
	e.seq = q.nextSeq
	q.nextSeq++
	q.push(e)
}

// PeekAt returns the time of the earliest pending event without
// dispatching it. ok is false when the queue is empty.
func (q *Queue) PeekAt() (at Ticks, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].At, true
}

// dispatch pops and fires the head event. Pooled events are recycled
// onto the free list before their handler runs, so a handler that
// immediately reschedules reuses the very event that woke it.
func (q *Queue) dispatch() {
	e := q.heap[0]
	q.remove(0)
	q.now = e.At
	q.stats.Fired++
	if e.pooled {
		at, h, arg := e.At, e.h, e.arg
		e.h = nil
		q.free = append(q.free, e)
		h.HandleEvent(at, arg)
		return
	}
	e.Fn(e.At)
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
	at := q.heap[0].At
	n := 0
	for len(q.heap) > 0 && q.heap[0].At == at {
		q.dispatch()
		n++
	}
	return n
}

// Run dispatches events until the queue is empty or until limit events
// have fired (limit <= 0 means no limit). It returns the number of
// events dispatched.
func (q *Queue) Run(limit int) int {
	n := 0
	for limit <= 0 || n < limit {
		if !q.Step() {
			break
		}
		n++
	}
	return n
}

// less orders events by (At, Prio, seq).
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.seq < b.seq
}

func (q *Queue) push(e *Event) {
	e.index = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.index)
}

// remove unlinks heap[i] and clears its index so that no caller can
// forget to: a stale index on a fired or cancelled event would make a
// later Cancel silently corrupt the heap.
func (q *Queue) remove(i int) {
	e := q.heap[i]
	n := len(q.heap) - 1
	if i != n {
		q.swap(i, n)
		q.heap[n] = nil
		q.heap = q.heap[:n]
		if !q.down(i) {
			q.up(i)
		}
	} else {
		q.heap[n] = nil
		q.heap = q.heap[:n]
	}
	e.index = -1
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
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
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) bool {
	moved := false
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
		q.swap(i, m)
		i = m
		moved = true
	}
	return moved
}
