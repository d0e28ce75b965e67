package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// countHandler is an allocation-free Handler for queue tests.
type countHandler struct {
	fired []uint64
}

func (h *countHandler) HandleEvent(now Ticks, arg uint64) { h.fired = append(h.fired, arg) }

func TestScheduleFnDispatchesWithArg(t *testing.T) {
	q := NewQueue()
	h := &countHandler{}
	q.ScheduleFn(20, 0, h, 42)
	q.ScheduleFn(10, 0, h, 7)
	drain(q)
	if len(h.fired) != 2 || h.fired[0] != 7 || h.fired[1] != 42 {
		t.Fatalf("fired %v, want [7 42]", h.fired)
	}
}

// TestScheduleFnRecyclesEvents pins the free list: a long
// schedule-fire cycle must reuse a bounded set of Event structs.
func TestScheduleFnRecyclesEvents(t *testing.T) {
	q := NewQueue()
	h := &countHandler{}
	for i := 0; i < 4; i++ {
		q.ScheduleFn(Ticks(i), 0, h, uint64(i))
	}
	for i := 0; i < 10_000; i++ {
		if !q.Step() {
			t.Fatal("queue drained early")
		}
		q.ScheduleFn(q.Now()+4, 0, h, uint64(i))
	}
	drain(q)
	if got := len(q.free); got > 8 {
		t.Fatalf("free list grew to %d events; recycling is broken", got)
	}
	if len(h.fired) != 10_004 {
		t.Fatalf("fired %d events, want 10004", len(h.fired))
	}
}

// TestQueueScheduleFnZeroAllocs pins the tentpole invariant: steady
// state schedule+dispatch cycling through ScheduleFn performs zero heap
// allocations.
func TestQueueScheduleFnZeroAllocs(t *testing.T) {
	q := NewQueue()
	var h Handler = &countHandler{}
	// Prime the heap and the free list to steady-state capacity.
	for i := 0; i < 64; i++ {
		q.ScheduleFn(Ticks(i), int32(i&3), h, uint64(i))
	}
	drain(q)
	hc := h.(*countHandler)
	avg := testing.AllocsPerRun(200, func() {
		hc.fired = hc.fired[:0]
		base := q.Now()
		for i := 0; i < 16; i++ {
			q.ScheduleFn(base+Ticks(i+1), int32(i&3), h, uint64(i))
		}
		for q.StepBatch() > 0 {
		}
	})
	if avg != 0 {
		t.Fatalf("ScheduleFn+StepBatch steady state allocates %.1f allocs/run, want 0", avg)
	}
}

func TestPeekAt(t *testing.T) {
	q := NewQueue()
	if _, ok := q.PeekAt(); ok {
		t.Fatal("PeekAt on empty queue reported an event")
	}
	q.ScheduleFn(30, 0, nopHandler{}, 0)
	q.ScheduleFn(10, 0, nopHandler{}, 0)
	if at, ok := q.PeekAt(); !ok || at != 10 {
		t.Fatalf("PeekAt = (%d,%v), want (10,true)", at, ok)
	}
	if q.Len() != 2 {
		t.Fatal("PeekAt must not dispatch")
	}
}

func TestStepBatchDispatchesWholeTick(t *testing.T) {
	q := NewQueue()
	var order []uint64
	const chain = 200 // an event that schedules 100 at its own tick
	var h HandlerFunc
	h = func(now Ticks, arg uint64) {
		if arg == chain {
			q.ScheduleFn(now, 5, h, 100)
			return
		}
		order = append(order, arg)
	}
	for i := 0; i < 3; i++ {
		q.ScheduleFn(5, int32(i), h, uint64(i))
	}
	q.ScheduleFn(9, 0, h, 99)
	if n := q.StepBatch(); n != 3 {
		t.Fatalf("StepBatch dispatched %d events, want 3", n)
	}
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	// An event scheduled for the current tick during a batch joins it.
	q.ScheduleFn(9, 0, h, chain)
	if n := q.StepBatch(); n != 3 {
		t.Fatalf("second StepBatch dispatched %d events, want 3", n)
	}
	if q.StepBatch() != 0 {
		t.Fatal("drained queue should batch zero events")
	}
}

// TestQueueInterleavedOpsOrderProperty hammers the queue with random
// interleavings of ScheduleFn and Step, recording dispatches through a
// Handler, and asserts the dispatch contract the free list must
// preserve: time never runs backwards, ties break by (Prio, seq) among
// co-pending events, and every event fires exactly once.
func TestQueueInterleavedOpsOrderProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		DT    uint16
		Prio  int8
		Which uint8
	}
	type evKey struct {
		at   Ticks
		prio int32
		seq  uint64
	}
	f := func(ops []op) bool {
		q := NewQueue()
		var seq uint64 // shadow of the queue's insertion counter
		keys := map[uint64]evKey{}
		var fired []uint64
		var next uint64
		h := HandlerFunc(func(now Ticks, arg uint64) { fired = append(fired, arg) })
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0, 1: // ScheduleFn
				id := next
				next++
				at := q.Now() + Ticks(o.DT%512)
				keys[id] = evKey{at, int32(o.Prio), seq}
				seq++
				q.ScheduleFn(at, int32(o.Prio), h, id)
			case 2: // Step a few events
				for n := 0; n < int(o.Which%4); n++ {
					if !q.Step() {
						break
					}
				}
			}
		}
		drain(q)

		seen := map[uint64]bool{}
		for i, id := range fired {
			if seen[id] {
				return false
			}
			seen[id] = true
			if i == 0 {
				continue
			}
			a, b := keys[fired[i-1]], keys[id]
			// Time is globally monotonic: everything is scheduled at or
			// after Now, so a dispatch can never precede an earlier one.
			if b.at < a.at {
				return false
			}
			if b.at == a.at {
				// Among equal-time dispatches, a priority inversion is
				// legal only for an event inserted later (it was not yet
				// pending when the earlier one won the heap).
				if b.prio < a.prio && b.seq < a.seq {
					return false
				}
				if b.prio == a.prio && b.seq < a.seq {
					return false
				}
			}
		}
		// Everything scheduled must have fired.
		return len(seen) == len(keys)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// HandlerFunc adapts a func to the Handler interface (test convenience;
// production hot paths implement Handler on a long-lived receiver so
// the interface value is built once).
type HandlerFunc func(now Ticks, arg uint64)

// HandleEvent implements Handler.
func (f HandlerFunc) HandleEvent(now Ticks, arg uint64) { f(now, arg) }

// nopHandler discards events; benchmarks use it so the measurement is
// the queue alone, not the handler's bookkeeping.
type nopHandler struct{}

func (nopHandler) HandleEvent(Ticks, uint64) {}

// BenchmarkEventQueue measures the hold model — fire one event,
// schedule its successor — which is the machine run loop's steady
// state. The 0 B/op figure is the tentpole's contract.
func BenchmarkEventQueue(b *testing.B) {
	q := NewQueue()
	var h Handler = nopHandler{}
	const pending = 64
	for i := 0; i < pending; i++ {
		q.ScheduleFn(Ticks(i), int32(i&3), h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
		q.ScheduleFn(q.Now()+pending, int32(i&3), h, uint64(i))
	}
}
