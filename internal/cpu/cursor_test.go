package cpu_test

import (
	"reflect"
	"testing"
	"unsafe"

	"flashsim/internal/apps"
	"flashsim/internal/cpu"
	"flashsim/internal/cpu/mipsy"
	"flashsim/internal/cpu/mxs"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// TestMemInfoStaysInRegisters keeps the access result from growing back
// into a struct that bounces off the stack at every call it crosses.
func TestMemInfoStaysInRegisters(t *testing.T) {
	fields, size := reflect.TypeOf(cpu.MemInfo{}).NumField(), unsafe.Sizeof(cpu.MemInfo{})
	if fields > 4 || size > 32 {
		t.Fatalf("cpu.MemInfo has %d fields in %d bytes; it must stay within 4 fields and 32 bytes.\n"+
			"Go's SSA keeps a struct in registers only up to four fields and four words; a wider one is\n"+
			"spilled field by field and re-read with 16-byte loads at every non-inlined call that passes or\n"+
			"returns it, a store-forwarding stall per hop. With eight fields memPort.Load, whose body is one\n"+
			"`return p.touch(...)`, was 4.9%% of study-quick. Put a new condition in MemFlags behind an accessor.",
			fields, size)
	}
}

// nextOnly is a cpu.Stream with nothing but Next: the cursor's adapter
// arm. It counts what it hands out, and a budget makes it a gate that
// closes and reopens like the sampling engine's.
type nextOnly struct {
	ins    []isa.Instr
	pos    int
	budget int
}

func (s *nextOnly) Next() (isa.Instr, bool) {
	if s.budget == 0 || s.pos == len(s.ins) {
		return isa.Instr{}, false
	}
	s.budget--
	s.pos++
	return s.ins[s.pos-1], true
}

// lender is a cpu.BatchStream that lends ins out a batch at a time from
// one slab, the way the emitter's Reader does — and wrecks the slab
// before refilling it, so an instruction read through a pointer kept
// across a refill does not survive. A lender without a slab lends ins
// itself, whole, round and round (the benchmark's endless stream).
type lender struct {
	ins  []isa.Instr
	pos  int
	slab []isa.Instr
}

func (s *lender) Next() (isa.Instr, bool) { panic("a core must read a BatchStream by the batch") }

func (s *lender) NextBatch() []isa.Instr {
	if s.slab == nil {
		return s.ins
	}
	for i := range s.slab {
		s.slab[i] = isa.Instr{Op: isa.NumOps, Addr: ^uint64(0), Size: ^uint32(0), Dep1: 1, Dep2: 1, Aux: ^uint32(0)}
	}
	n := copy(s.slab, s.ins[s.pos:])
	s.pos += n
	return s.slab[:n]
}

// TestCursorOverGate: over a stream that answers false and later true
// again, the cursor delivers every instruction exactly once and has
// never taken one from the stream that it has not delivered — the
// gate's other reader continues exactly where the core stopped.
func TestCursorOverGate(t *testing.T) {
	ins := make([]isa.Instr, 10)
	for i := range ins {
		ins[i] = isa.Instr{Op: isa.IntALU, Aux: uint32(i)}
	}
	g := &nextOnly{ins: ins}
	cur := cpu.NewCursor(g)
	var got []uint32
	for _, open := range []int{3, 0, 1, 4, 100} {
		g.budget = open
		for in := cur.Next(); in != nil; in = cur.Next() {
			got = append(got, in.Aux)
		}
		if g.pos != len(got) {
			t.Fatalf("after a window of %d the stream has handed out %d instructions, the cursor delivered %d", open, g.pos, len(got))
		}
	}
	if len(got) != len(ins) {
		t.Fatalf("delivered %d of %d instructions", len(got), len(ins))
	}
	for i, aux := range got {
		if aux != uint32(i) {
			t.Fatalf("instruction %d delivered in position %d", aux, i)
		}
	}
}

// scriptPort hits in one cycle, except that an address with bit 20 set
// goes to memory and one with bit 21 set is deferred, as the windowed
// engine's port defers a miss.
type scriptPort struct{ clock sim.Clock }

func (p scriptPort) access(t sim.Ticks, addr uint64) cpu.MemInfo {
	switch {
	case addr&(1<<21) != 0:
		return cpu.MemInfo{Flags: cpu.FlagPending}
	case addr&(1<<20) != 0:
		return cpu.MemInfo{Done: t + p.clock.Cycles(40), IssuedAt: t + 1, Flags: cpu.FlagWentToMemory | cpu.FlagTLBMiss}
	}
	return cpu.MemInfo{Done: t + p.clock.Cycles(1), L1Hit: true}
}
func (p scriptPort) Load(t sim.Ticks, addr uint64, _ uint32) cpu.MemInfo  { return p.access(t, addr) }
func (p scriptPort) Store(t sim.Ticks, addr uint64, _ uint32) cpu.MemInfo { return p.access(t, addr) }
func (p scriptPort) Prefetch(sim.Ticks, uint64)                           {}
func (p scriptPort) CacheOp(t sim.Ticks, _ uint64, _ uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.clock.Cycles(2), Flags: cpu.FlagDirtyCacheOp}
}
func (p scriptPort) SyscallCost(uint32) uint32 { return 7 }

// transcript runs core to the end of its stream the way the machine
// would — a sync op resumes at once, a blocked access is delivered 90
// cycles later — and returns every outcome in order.
func transcript(t *testing.T, clock sim.Clock, core cpu.CPU) []cpu.Outcome {
	t.Helper()
	var outs []cpu.Outcome
	var now sim.Ticks
	for len(outs) < 10_000 {
		out := core.Run(now)
		outs = append(outs, out)
		now = out.Time
		switch out.Kind {
		case cpu.Finished:
			return outs
		case cpu.Blocked:
			now = core.(cpu.Blocking).Deliver(cpu.MemInfo{
				Done: now + clock.Cycles(90), IssuedAt: now + clock.Cycles(3), Flags: cpu.FlagWentToMemory})
			outs = append(outs, cpu.Outcome{Kind: cpu.Yield, Time: now}) // the resume time is part of the contract
		}
	}
	t.Fatal("core did not finish")
	return nil
}

// TestBothArmsAgree feeds each core the same instructions through a
// Next-only stream and through batches of several sizes: the outcomes
// and the counters must be identical. The stream ends mid-batch (23 is
// not a multiple of 4 or 6), batches of 1, 4 and 6 each end on one of
// the sync ops at positions 3, 11 and 17 (whose outcome must be a copy —
// the lender wrecks its slab at the next refill), and a deferred access
// goes through Deliver.
func TestBothArmsAgree(t *testing.T) {
	const far, deferred = 1 << 20, 1 << 21
	ins := []isa.Instr{
		{Op: isa.Load, Addr: 0x100, Size: 8},
		{Op: isa.IntALU, Dep1: 1},
		{Op: isa.Store, Addr: 0x108, Size: 8, Dep1: 1},
		{Op: isa.Barrier, Aux: 3},
		{Op: isa.Load, Addr: far | 0x40, Size: 4},
		{Op: isa.FPMul, Dep1: 1},
		{Op: isa.Load, Addr: deferred | 0x80, Size: 8},
		{Op: isa.IntMul, Dep1: 1, Dep2: 2},
		{Op: isa.Prefetch, Addr: 0x200, Size: 4},
		{Op: isa.CacheOp, Addr: 0x200, Size: 4, Aux: 0x15},
		{Op: isa.Store, Addr: deferred | 0x88, Size: 4},
		{Op: isa.Lock, Aux: 7},
		{Op: isa.Syscall, Aux: 2},
		{Op: isa.Branch, Dep1: 1},
		{Op: isa.Cop0},
		{Op: isa.IntDiv, Dep1: 2},
		{Op: isa.FPAdd, Dep1: 1},
		{Op: isa.Unlock, Aux: 7},
		{Op: isa.Store, Addr: far | 0x10, Size: 8},
		{Op: isa.Load, Addr: 0x300, Size: 8},
		{Op: isa.IntALU, Dep1: 1},
		{Op: isa.FPDiv, Dep1: 1},
		{Op: isa.Nop},
	}
	clock := sim.Clock150
	port := scriptPort{clock: clock}
	cores := map[string]func(cpu.Stream) cpu.CPU{
		"mipsy": func(src cpu.Stream) cpu.CPU {
			return mipsy.New(mipsy.Config{Clock: clock, ModelInstrLatency: true, Quantum: 5}, src, port)
		},
		"mxs": func(src cpu.Stream) cpu.CPU {
			mc := mxs.DefaultConfig(clock)
			mc.Quantum = 5
			mc.Fidelity.BugCacheOpStall, mc.Fidelity.CacheOpStallCycles = true, 50
			return mxs.New(mc, src, port)
		},
	}
	for name, mk := range cores {
		t.Run(name, func(t *testing.T) {
			ref := mk(&nextOnly{ins: ins, budget: -1})
			want := transcript(t, clock, ref)
			syncs := 0
			for _, out := range want {
				if out.Kind == cpu.SyncOp {
					syncs++
				}
			}
			if syncs != 3 || ref.Instructions() != uint64(len(ins)) {
				t.Fatalf("reference arm saw %d sync ops and %d instructions, want 3 and %d", syncs, ref.Instructions(), len(ins))
			}
			for _, size := range []int{1, 4, 6, len(ins), 64} {
				core := mk(&lender{ins: ins, slab: make([]isa.Instr, size)})
				if got := transcript(t, clock, core); !reflect.DeepEqual(got, want) {
					t.Errorf("batches of %d: outcomes\n got %+v\nwant %+v", size, got, want)
				}
				if got := core.Instructions(); got != ref.Instructions() {
					t.Errorf("batches of %d: %d instructions, want %d", size, got, ref.Instructions())
				}
			}
		})
	}
}

// hitPort always hits in the primary cache: a core's own cost, without
// the memory path.
type hitPort struct{ hit sim.Ticks }

func (p hitPort) Load(t sim.Ticks, _ uint64, _ uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.hit, L1Hit: true}
}
func (p hitPort) Store(t sim.Ticks, _ uint64, _ uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.hit, L1Hit: true}
}
func (p hitPort) Prefetch(sim.Ticks, uint64) {}
func (p hitPort) CacheOp(t sim.Ticks, _ uint64, _ uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.hit}
}
func (p hitPort) SyscallCost(uint32) uint32 { return 100 }

// BenchmarkCoreRun prices one instruction in each core on the arm the
// machine runs: a captured FFT stream lent out in place, round and
// round, against a port that always hits. ns/op is ns per instruction, and it
// must allocate nothing. (The benchmark ledger's cpu.*_ns_per_instr
// feed a Next-only stream, so they price the adapter arm instead.)
func BenchmarkCoreRun(b *testing.B) {
	_, s := apps.FFT(apps.FFTOpts{LogN: 10, Procs: 1, TLBBlocked: true, Prefetch: true}).Launch()
	var ins []isa.Instr
	for in, ok := s.Readers[0].Next(); ok; in, ok = s.Readers[0].Next() {
		ins = append(ins, in)
	}
	s.Wait()
	clock := sim.Clock150
	port := hitPort{hit: clock.Cycles(1)}
	cores := []struct {
		name string
		mk   func(cpu.Stream) cpu.CPU
	}{
		{"mipsy", func(src cpu.Stream) cpu.CPU { return mipsy.New(mipsy.Config{Clock: clock}, src, port) }},
		{"mxs", func(src cpu.Stream) cpu.CPU { return mxs.New(mxs.DefaultConfig(clock), src, port) }},
	}
	for _, c := range cores {
		b.Run(c.name, func(b *testing.B) {
			core := c.mk(&lender{ins: ins})
			var now sim.Ticks
			b.ReportAllocs()
			b.ResetTimer()
			for core.Instructions() < uint64(b.N) {
				now = core.Run(now).Time
			}
		})
	}
}
