package cache

import (
	"testing"

	"flashsim/internal/sim"
)

func TestWriteBufferAbsorbsUpToCapacity(t *testing.T) {
	wb := NewWriteBuffer(4)
	for i := 0; i < 4; i++ {
		proceed := wb.Push(sim.Ticks(i), 1000)
		if proceed != sim.Ticks(i) {
			t.Fatalf("store %d stalled with free slots: %d", i, proceed)
		}
	}
	// Fifth store must wait for the oldest drain.
	if proceed := wb.Push(10, 2000); proceed != 1000 {
		t.Fatalf("full buffer proceed = %d, want 1000", proceed)
	}
}

func TestWriteBufferExpiry(t *testing.T) {
	wb := NewWriteBuffer(2)
	wb.Push(0, 100)
	wb.Push(0, 100)
	// By t=200 both drained; new stores must not stall.
	if proceed := wb.Push(200, 300); proceed != 200 {
		t.Fatalf("drained buffer stalled: %d", proceed)
	}
	// One slot is held, so one more store fits and the next waits for
	// the drain at 300.
	if proceed := wb.Push(200, 400); proceed != 200 {
		t.Fatalf("second slot stalled: %d", proceed)
	}
	if proceed := wb.Push(200, 500); proceed != 300 {
		t.Fatalf("full buffer proceed = %d, want 300", proceed)
	}
}

func TestWriteBufferDrainBy(t *testing.T) {
	wb := NewWriteBuffer(4)
	wb.Push(0, 500)
	wb.Push(0, 300)
	if got := wb.DrainBy(100); got != 500 {
		t.Fatalf("drain by = %d, want 500", got)
	}
	// Buffer empty afterwards.
	if got := wb.DrainBy(600); got != 600 {
		t.Fatalf("empty drain = %d", got)
	}
}

func TestWriteBufferOutOfOrderCompletions(t *testing.T) {
	wb := NewWriteBuffer(2)
	wb.Push(0, 900) // slow store
	wb.Push(0, 100) // fast store
	// Third store: one slot frees at 100 (the faster completion).
	if proceed := wb.Push(0, 500); proceed != 100 {
		t.Fatalf("proceed = %d, want 100 (earliest drain)", proceed)
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHRs(4)
	m.Complete(0x100, 500)
	if done, ok := m.Lookup(0x100, 10); !ok || done != 500 {
		t.Fatalf("merge lookup: %d %v", done, ok)
	}
	if m.Merges() != 1 {
		t.Fatal("merge not counted")
	}
	if _, ok := m.Lookup(0x200, 10); ok {
		t.Fatal("lookup of absent line joined a miss")
	}
}

func TestMSHRCapacityStall(t *testing.T) {
	m := NewMSHRs(2)
	m.Reserve(0x100, 0)
	m.Complete(0x100, 300)
	m.Reserve(0x200, 0)
	m.Complete(0x200, 500)
	// Third miss at t=10: both registers busy; earliest completes 300.
	if issue := m.Reserve(0x300, 10); issue != 300 {
		t.Fatalf("issue = %d, want 300", issue)
	}
}

func TestMSHRExpiry(t *testing.T) {
	m := NewMSHRs(1)
	m.Reserve(0x100, 0)
	m.Complete(0x100, 100)
	// At t=200 the register is free.
	if issue := m.Reserve(0x200, 200); issue != 200 {
		t.Fatalf("issue = %d", issue)
	}
	if _, ok := m.Lookup(0x100, 200); ok {
		t.Fatal("a miss completed at 100 is still outstanding at 200")
	}
}

// TestMSHRVictimTieBreak pins the rule for two registers completing on
// the same tick: the lowest line address gives up its register,
// whatever order the misses were issued in.
func TestMSHRVictimTieBreak(t *testing.T) {
	for _, order := range [][3]uint64{{0x100, 0x200, 0x300}, {0x200, 0x100, 0x300}, {0x300, 0x200, 0x100}} {
		m := NewMSHRs(3)
		for _, line := range order {
			m.Reserve(line, 0)
			m.Complete(line, 400)
		}
		m.Complete(0x300, 900) // a re-completed line keeps its one register
		if issue := m.Reserve(0x400, 10); issue != 400 {
			t.Fatalf("order %x: issue = %d, want 400", order, issue)
		}
		m.Complete(0x400, 1000)
		if _, ok := m.Lookup(0x100, 10); ok {
			t.Fatalf("order %x: lowest address kept its register", order)
		}
		if done, ok := m.Lookup(0x200, 10); !ok || done != 400 {
			t.Fatalf("order %x: 0x200 lost its register (%d, %v)", order, done, ok)
		}
		if done, ok := m.Lookup(0x300, 10); !ok || done != 900 {
			t.Fatalf("order %x: 0x300 = (%d, %v), want (900, true)", order, done, ok)
		}
		if done, ok := m.Lookup(0x400, 10); !ok || done != 1000 {
			t.Fatalf("order %x: 0x400 = (%d, %v), want (1000, true)", order, done, ok)
		}
		// At t=400 only 0x200 retires; the next victim is the earlier of
		// the two that remain.
		if issue := m.Reserve(0x500, 400); issue != 400 {
			t.Fatalf("order %x: free register not used: %d", order, issue)
		}
		m.Complete(0x500, 2000)
		if issue := m.Reserve(0x600, 500); issue != 900 {
			t.Fatalf("order %x: issue = %d, want 900", order, issue)
		}
	}
}

// TestWriteBufferPendingCycleDoesNotAllocate cycles placeholders through
// a full buffer the way the barrier does (PushPending in the parallel
// phase, Patch at the barrier), with out-of-order completions, and
// checks results against the stall arithmetic as well as the allocator.
func TestWriteBufferPendingCycleDoesNotAllocate(t *testing.T) {
	wb := NewWriteBuffer(4)
	now := sim.Ticks(0)
	for i := 0; i < 3; i++ {
		wb.PushPending(now)
		wb.Patch(now + 1000)
	}
	// AllocsPerRun reports whole allocations per run, so one run is many
	// stores: a buffer that reallocates once in a while must not round
	// down to zero.
	i, stalled := 0, false
	if a := testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			i++
			now += 10
			proceed, ok := wb.PushPending(now)
			if !ok || proceed < now {
				t.Fatalf("PushPending(%d) = (%d, %v)", now, proceed, ok)
			}
			if proceed > now {
				now, stalled = proceed, true
			}
			wb.Patch(now + 300 + sim.Ticks(i%3)*200)
			if len(wb.drains) > wb.entries {
				t.Fatal("buffer over capacity")
			}
		}
	}); a != 0 {
		t.Fatalf("PushPending+Patch allocates %.0f objects per 64 stores", a)
	}
	if !stalled {
		t.Fatal("the cycle never filled the buffer")
	}
}

func TestL2InterfaceDisabled(t *testing.T) {
	l := &L2Interface{Enabled: false, TransferTicks: 100}
	if l.AcquireForRefill(50) != 50 || l.AcquireForTagCheck(50) != 50 {
		t.Fatal("disabled interface must be free")
	}
}

func TestL2InterfaceTransfersSerialize(t *testing.T) {
	l := &L2Interface{Enabled: true, TransferTicks: 100}
	s1 := l.AcquireForRefill(0)
	s2 := l.AcquireForRefill(0)
	if s1 != 0 || s2 != 100 {
		t.Fatalf("transfer starts %d %d", s1, s2)
	}
}

func TestL2InterfaceTagCheckWaitsDuringTransfer(t *testing.T) {
	l := &L2Interface{Enabled: true, TransferTicks: 100}
	l.AcquireForRefill(50) // busy [50,150)
	if got := l.AcquireForTagCheck(75); got != 150 {
		t.Fatalf("tag check during transfer = %d, want 150", got)
	}
	// Before the transfer starts the interface is free — future
	// reservations must not block the past.
	if got := l.AcquireForTagCheck(10); got != 10 {
		t.Fatalf("tag check before transfer = %d, want 10", got)
	}
	// And after it completes.
	if got := l.AcquireForTagCheck(200); got != 200 {
		t.Fatalf("tag check after transfer = %d", got)
	}
}
