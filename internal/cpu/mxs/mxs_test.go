package mxs

import (
	"testing"

	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

type fakePort struct {
	clock sim.Clock
	missT sim.Ticks // addresses >= missBase miss
	base  uint64
	loads int
}

func (p *fakePort) Load(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	p.loads++
	if addr >= p.base {
		return cpu.MemInfo{Done: t + p.missT, IssuedAt: t, Flags: cpu.FlagWentToMemory}
	}
	return cpu.MemInfo{Done: t + p.clock.Cycles(2), L1Hit: true}
}

func (p *fakePort) Store(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.clock.Cycles(1), L1Hit: true}
}

func (p *fakePort) Prefetch(t sim.Ticks, addr uint64) {}

func (p *fakePort) CacheOp(t sim.Ticks, addr uint64, aux uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.clock.Cycles(1), Flags: cpu.FlagDirtyCacheOp}
}

func (p *fakePort) SyscallCost(aux uint32) uint32 { return 50 }

func runAll(t *testing.T, cfg Config, port cpu.Port, body func(*emitter.Thread)) sim.Ticks {
	t.Helper()
	s := emitter.Start(1, body, nil)
	defer s.Abort()
	c := New(cfg, s.Readers[0], port)
	var now sim.Ticks
	for {
		out := c.Run(now)
		if out.Time > now {
			now = out.Time
		}
		if out.Kind == cpu.Finished {
			return now
		}
	}
}

func noBranchConfig(clock sim.Clock) Config {
	cfg := DefaultConfig(clock)
	cfg.BranchAccuracy = 1.0
	return cfg
}

func TestSuperscalarALUThroughput(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, base: 1 << 40}
	end := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		th.IntOps(400)
	})
	// 400 independent ALU ops on a 4-issue core with 2 effective ALUs
	// (structural hazard: one ALU slot per cycle in this model) should
	// take far less than 400 cycles... the single-ALU-pipe model gives
	// ~400; the point is it must beat a 1-IPC in-order core's
	// serialization with dependent ops.
	if end > clock.Cycles(450) {
		t.Fatalf("independent ALU stream too slow: %d ticks", end)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, base: 1 << 40}
	endDep := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		v := th.IntALU(emitter.None, emitter.None)
		for i := 0; i < 200; i++ {
			v = th.FPAdd(v, emitter.None) // 2-cycle latency chain
		}
	})
	endInd := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		for i := 0; i < 201; i++ {
			th.FPAdd(emitter.None, emitter.None)
		}
	})
	if endDep <= endInd {
		t.Fatalf("dependent chain (%d) must be slower than independent ops (%d)", endDep, endInd)
	}
}

func TestLoadsOverlapUnderMisses(t *testing.T) {
	clock := sim.Clock150
	miss := clock.Cycles(100)
	port := &fakePort{clock: clock, base: 0, missT: miss}
	end := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		for i := 0; i < 8; i++ {
			th.Load(uint64(i*128), 8, emitter.None, emitter.None)
		}
	})
	// Independent misses must overlap: well under 8 * 100 cycles.
	if end >= 8*miss {
		t.Fatalf("no overlap: %d ticks for 8 misses of %d", end, miss)
	}
}

func TestDependentLoadsDoNotOverlap(t *testing.T) {
	clock := sim.Clock150
	miss := clock.Cycles(100)
	port := &fakePort{clock: clock, base: 0, missT: miss}
	end := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		var v emitter.Val
		for i := 0; i < 8; i++ {
			v = th.Load(uint64(i*128), 8, emitter.None, v)
		}
	})
	if end < 8*miss {
		t.Fatalf("pointer chase overlapped: %d < %d", end, 8*miss)
	}
}

func TestMulDivUnpipelined(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, base: 1 << 40}
	end := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		for i := 0; i < 10; i++ {
			th.IntDiv(emitter.None, emitter.None)
		}
	})
	// 10 independent divides on an unpipelined 19-cycle unit.
	if end < clock.Cycles(190) {
		t.Fatalf("divides pipelined: %d ticks", end)
	}
}

func TestCop0FlushesPipeline(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, base: 1 << 40}
	endCop := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		for i := 0; i < 20; i++ {
			th.Op(isa.Cop0, emitter.None, emitter.None)
		}
	})
	endALU := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		th.IntOps(20)
	})
	if endCop <= endALU*2 {
		t.Fatalf("coprocessor ops must drain the pipeline: cop=%d alu=%d", endCop, endALU)
	}
}

func TestTLBMissFlushIsSerial(t *testing.T) {
	clock := sim.Clock150
	// Port where every load reports a TLB miss costing 65 cycles.
	port := &tlbPort{clock: clock}
	end := runAll(t, noBranchConfig(clock), port, func(th *emitter.Thread) {
		for i := 0; i < 10; i++ {
			th.Load(uint64(i*4096), 8, emitter.None, emitter.None)
		}
	})
	// Refills are exceptions: they must not overlap each other.
	if end < clock.Cycles(10*65) {
		t.Fatalf("TLB refills overlapped: %d < %d", end, clock.Cycles(650))
	}
}

type tlbPort struct {
	clock sim.Clock
}

func (p *tlbPort) Load(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.clock.Cycles(65+1), L1Hit: true, Flags: cpu.FlagTLBMiss}
}
func (p *tlbPort) Store(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t + p.clock.Cycles(1), L1Hit: true}
}
func (p *tlbPort) Prefetch(sim.Ticks, uint64) {}
func (p *tlbPort) CacheOp(t sim.Ticks, addr uint64, aux uint32) cpu.MemInfo {
	return cpu.MemInfo{Done: t}
}
func (p *tlbPort) SyscallCost(uint32) uint32 { return 0 }

func TestFastIssueBugIsOptimistic(t *testing.T) {
	clock := sim.Clock150
	body := func(th *emitter.Thread) {
		for i := 0; i < 500; i++ {
			th.FPMul(emitter.None, emitter.None)
			th.IntALU(emitter.None, emitter.None)
		}
	}
	port := &fakePort{clock: clock, base: 1 << 40}
	clean := runAll(t, noBranchConfig(clock), port, body)
	bugCfg := noBranchConfig(clock)
	bugCfg.Fidelity.BugFastIssue = true
	buggy := runAll(t, bugCfg, port, body)
	if buggy > clean {
		t.Fatalf("bug made the core slower: %d vs %d", buggy, clean)
	}
}

func TestCacheOpStallBug(t *testing.T) {
	clock := sim.Clock150
	port := &fakePort{clock: clock, base: 1 << 40}
	body := func(th *emitter.Thread) {
		th.CacheOp(0x1000, 0)
		th.IntOps(10)
	}
	clean := runAll(t, noBranchConfig(clock), port, body)
	bugCfg := noBranchConfig(clock)
	bugCfg.Fidelity.BugCacheOpStall = true
	bugCfg.Fidelity.CacheOpStallCycles = 1000
	buggy := runAll(t, bugCfg, port, body)
	if buggy < clean+clock.Cycles(900) {
		t.Fatalf("stall bug did not stall: %d vs %d", buggy, clean)
	}
}

func TestAddressInterlocksSlowDependentAddressing(t *testing.T) {
	clock := sim.Clock150
	body := func(th *emitter.Thread) {
		var v emitter.Val
		for i := 0; i < 200; i++ {
			v = th.Load(uint64(i), 8, emitter.None, v) // addr dep dist 1
		}
	}
	port := &fakePort{clock: clock, base: 1 << 40}
	plain := runAll(t, noBranchConfig(clock), port, body)
	ic, id := DefaultInterlocks()
	ilCfg := noBranchConfig(clock)
	ilCfg.Fidelity = Fidelity{ModelAddressInterlocks: true, InterlockCycles: ic, InterlockMaxDist: id}
	slowed := runAll(t, ilCfg, port, body)
	// Every load after the first takes its address from the load before
	// it, so each of the 199 pays the interlock on the critical path.
	if want := plain + clock.Cycles(199*uint64(ic)); slowed < want {
		t.Fatalf("interlocks cost %d ticks over %d, want at least %d", slowed-plain, plain, want-plain)
	}
}

func TestBranchMispredictionCost(t *testing.T) {
	clock := sim.Clock150
	body := func(th *emitter.Thread) {
		for i := 0; i < 500; i++ {
			th.Branch(emitter.None)
			th.IntALU(emitter.None, emitter.None)
		}
	}
	port := &fakePort{clock: clock, base: 1 << 40}
	perfect := runAll(t, noBranchConfig(clock), port, body)
	badCfg := DefaultConfig(clock)
	badCfg.BranchAccuracy = 0.5
	bad := runAll(t, badCfg, port, body)
	if bad <= perfect {
		t.Fatalf("mispredictions free: %d vs %d", bad, perfect)
	}
}
