package mipsy

import (
	"testing"

	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// fakePort returns fixed latencies and records accesses.
type fakePort struct {
	clock    sim.Clock
	hitCyc   uint32
	missAddr uint64 // addresses >= missAddr take missTicks and go to memory
	missT    sim.Ticks
	loads    int
	stores   int
	prefs    int
}

func (p *fakePort) Load(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	p.loads++
	if addr >= p.missAddr {
		return cpu.MemInfo{Done: t + p.missT, IssuedAt: t, Flags: cpu.FlagWentToMemory}
	}
	return cpu.MemInfo{Done: t + p.clock.Cycles(uint64(p.hitCyc)), L1Hit: true}
}

func (p *fakePort) Store(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	p.stores++
	if addr >= p.missAddr {
		// The write buffer takes the store while its miss goes out.
		return cpu.MemInfo{Done: t + p.clock.Cycles(uint64(p.hitCyc)), IssuedAt: t, Flags: cpu.FlagWentToMemory}
	}
	return cpu.MemInfo{Done: t + p.clock.Cycles(uint64(p.hitCyc)), L1Hit: true}
}

func (p *fakePort) Prefetch(t sim.Ticks, addr uint64) { p.prefs++ }

func (p *fakePort) CacheOp(t sim.Ticks, addr uint64, aux uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.clock.Cycles(1)}
}

func (p *fakePort) SyscallCost(aux uint32) uint32 { return 100 }

func run(t *testing.T, cfg Config, port cpu.Port, body func(*emitter.Thread)) (sim.Ticks, uint64) {
	t.Helper()
	s := emitter.Start(1, 1, body, nil)
	defer s.Abort()
	c := New(cfg, s.Readers[0], port)
	var now sim.Ticks
	for {
		out := c.Run(now)
		now = out.Time
		switch out.Kind {
		case cpu.Finished:
			return now, c.Instructions()
		case cpu.SyncOp:
			// Trivial: resume immediately.
		}
	}
}

func TestOneInstructionPerCycle(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
	end, n := run(t, Config{Clock: clock, Quantum: 200}, port, func(th *emitter.Thread) {
		th.IntOps(100)
	})
	if n != 100 {
		t.Fatalf("instructions %d", n)
	}
	if end != clock.Cycles(100) {
		t.Fatalf("100 ALU ops took %d ticks, want %d (1 IPC)", end, clock.Cycles(100))
	}
}

func TestUnitLatencyIgnoresMulDiv(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
	end, _ := run(t, Config{Clock: clock, Quantum: 200}, port, func(th *emitter.Thread) {
		for i := 0; i < 10; i++ {
			th.IntDiv(emitter.None, emitter.None)
		}
	})
	if end != clock.Cycles(10) {
		t.Fatalf("Mipsy must charge 1 cycle per divide: %d ticks", end)
	}
}

func TestModelInstrLatencyChargesMulDiv(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
	end, _ := run(t, Config{Clock: clock, ModelInstrLatency: true, Quantum: 200}, port, func(th *emitter.Thread) {
		for i := 0; i < 10; i++ {
			th.IntDiv(emitter.None, emitter.None)
		}
	})
	want := clock.Cycles(10 * uint64(isa.R10000Latencies()[isa.IntDiv].Cycles))
	if end != want {
		t.Fatalf("latency-modeled divides took %d ticks, want %d", end, want)
	}
}

func TestBlockingReads(t *testing.T) {
	clock := sim.Clock150
	miss := clock.Cycles(100)
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 0, missT: miss}
	end, _ := run(t, Config{Clock: clock, Quantum: 200}, port, func(th *emitter.Thread) {
		th.Load(0x1000, 8, emitter.None, emitter.None)
		th.Load(0x2000, 8, emitter.None, emitter.None)
	})
	// Blocking: the second load starts when the first's data arrives, and
	// the core finishes when the second's does.
	if end != 2*miss {
		t.Fatalf("two blocking misses took %d ticks, want %d", end, 2*miss)
	}
}

func TestClockSpeedScalesComputeOnly(t *testing.T) {
	mk := func(mhz int) sim.Ticks {
		clock := sim.NewClock(mhz)
		port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
		end, _ := run(t, Config{Clock: clock, Quantum: 200}, port, func(th *emitter.Thread) {
			th.IntOps(300)
		})
		return end
	}
	t150, t300 := mk(150), mk(300)
	if t300*2 != t150 {
		t.Fatalf("300MHz should halve compute time: %d vs %d", t300, t150)
	}
}

func TestSyscallCharged(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
	end, _ := run(t, Config{Clock: clock, Quantum: 200}, port, func(th *emitter.Thread) {
		th.Syscall(1)
	})
	if end != clock.Cycles(101) {
		t.Fatalf("syscall took %d ticks, want %d", end, clock.Cycles(101))
	}
}

func TestSyncOpYieldsToMachine(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
	s := emitter.Start(1, 1, func(th *emitter.Thread) {
		th.IntOps(2)
		th.Barrier(3)
	}, nil)
	defer s.Abort()
	c := New(Config{Clock: clock, Quantum: 200}, s.Readers[0], port)
	out := c.Run(0)
	if out.Kind != cpu.SyncOp || out.Op != isa.Barrier || out.Aux != 3 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestPrefetchDoesNotBlock(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
	end, _ := run(t, Config{Clock: clock, Quantum: 200}, port, func(th *emitter.Thread) {
		for i := 0; i < 10; i++ {
			th.Prefetch(uint64(0x1000 + i*128))
		}
	})
	if end != clock.Cycles(10) {
		t.Fatalf("prefetches blocked: %d ticks", end)
	}
	if port.prefs != 10 {
		t.Fatalf("prefetches issued %d", port.prefs)
	}
}

func TestQuantumYields(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 1 << 40}
	s := emitter.Start(1, 1, func(th *emitter.Thread) { th.IntOps(500) }, nil)
	defer s.Abort()
	c := New(Config{Clock: clock, Quantum: 100}, s.Readers[0], port)
	out := c.Run(0)
	if out.Kind != cpu.Yield {
		t.Fatalf("expected quantum yield, got %v", out.Kind)
	}
	if c.Instructions() != 100 {
		t.Fatalf("quantum not honored: %d", c.Instructions())
	}
}

// TestOnlyAStoreMissYields: a load the port answers from memory at once
// blocks the core and runs on, and a store the write buffer took while
// its miss went out ends the slice at its completion.
func TestOnlyAStoreMissYields(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, hitCyc: 1, missAddr: 0x1000, missT: clock.Cycles(100)}
	s := emitter.Start(1, 1, func(th *emitter.Thread) {
		th.Load(0x2000, 8, emitter.None, emitter.None)
		th.IntOps(1)
		th.Store(0x3000, 8, emitter.None, emitter.None)
		th.IntOps(5)
	}, nil)
	defer s.Abort()
	c := New(Config{Clock: clock, Quantum: 200}, s.Readers[0], port)
	if out := c.Run(0); out.Kind != cpu.Yield || out.Time != clock.Cycles(102) || c.Instructions() != 3 {
		t.Fatalf("outcome %+v after %d instructions, want a yield at %d after the store (3)", out, c.Instructions(), clock.Cycles(102))
	}
}
