package machine

import (
	"testing"
	"unsafe"

	"flashsim/internal/cache"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
	"flashsim/internal/vm"
)

// testMachine assembles a minimal single-node machine around a port for
// white-box path testing. The tests below drive the canDefer=false
// bodies — the barrier executor's synchronous re-entry — so every path
// completes inline without an engine to run the deferred ops.
func testMachine(t *testing.T, osKind osmodel.Kind) (*Machine, *memPort, emitter.Region) {
	t.Helper()
	cfg := Base(1, true)
	cfg.Name = "port-test"
	cfg.OS = osmodel.Config{Kind: osKind, TLBEntries: 64, TLBHandlerCycles: 65, PageFaultCycles: 100, SyscallCycles: 10}
	if osKind == osmodel.Solo {
		cfg.OS = osmodel.DefaultSolo()
	}
	cfg.ModelL2InterfaceOccupancy = true
	space := emitter.NewAddressSpace()
	region := space.AllocPageAligned("data", 1<<20, emitter.Placement{Kind: emitter.PlaceOnNode, Node: 0})
	m := &Machine{cfg: cfg}
	pt := osmodel.NewPageTable(cfg.OS.Kind, space, 1, cfg.Colors())
	m.os = osmodel.New(cfg.OS, pt, 1)
	m.mem = memsys.NewFlashLite(memsys.DefaultFlashConfig(1, cfg.FlashTiming))
	m.mem.SetPeers(m)
	clock := sim.NewClock(cfg.ClockMHz)
	p := &memPort{
		m: m, node: 0, clock: clock,
		l1:   cache.New(cfg.L1D),
		l2:   cache.New(cfg.L2),
		wb:   cache.NewWriteBuffer(cfg.WriteBufferEntries),
		mshr: cache.NewMSHRs(cfg.MSHRCount),
		l2if: &cache.L2Interface{Enabled: cfg.ModelL2InterfaceOccupancy, TransferTicks: sim.NS(cfg.L2TransferNS)},
	}
	m.nodes = []*node{{id: 0, port: p}}
	return m, p, region
}

func TestPortLoadMissThenHits(t *testing.T) {
	_, p, r := testMachine(t, osmodel.Solo)
	mi := p.touch(0, access{op: isa.Load, va: r.Base}, false)
	if !mi.WentToMemory() || mi.L1Hit {
		t.Fatalf("cold load: %+v", mi)
	}
	mi2 := p.touch(mi.Done, access{op: isa.Load, va: r.Base + 8}, false)
	if !mi2.L1Hit {
		t.Fatalf("second load in same line should hit L1: %+v", mi2)
	}
	if mi2.Done-mi.Done != p.cyc(p.m.cfg.L1HitCycles) {
		t.Fatalf("L1 hit latency %d", mi2.Done-mi.Done)
	}
}

func TestPortL2HitAfterL1Eviction(t *testing.T) {
	_, p, r := testMachine(t, osmodel.Solo)
	now := p.touch(0, access{op: isa.Load, va: r.Base}, false).Done
	// Evict the L1 line by filling its set (L1: 4 KB way, 2 ways).
	for i := 1; i <= 2; i++ {
		now = p.touch(now, access{op: isa.Load, va: r.Base + uint64(i)*4096}, false).Done
	}
	mi := p.touch(now, access{op: isa.Load, va: r.Base}, false)
	if !mi.L2Hit() || mi.L1Hit {
		t.Fatalf("expected L2 hit: %+v", mi)
	}
}

func TestPortStoreGetsExclusiveThenSilentUpgrade(t *testing.T) {
	_, p, r := testMachine(t, osmodel.Solo)
	// Load first: exclusive grant (unowned line).
	mi := p.touch(0, access{op: isa.Load, va: r.Base}, false)
	// Store to the same line: must be an L1 hit (E -> M), no upgrade.
	st := p.touch(mi.Done, access{op: isa.Store, va: r.Base}, false)
	if !st.L1Hit {
		t.Fatalf("store to exclusively held line missed: %+v", st)
	}
	if p.cases[proto.Upgrade] != 0 {
		t.Fatalf("upgrade issued: %d", p.cases[proto.Upgrade])
	}
	if p.l2.Lookup(pToPA(p, r.Base)) != cache.Modified {
		t.Fatal("dirtiness not propagated to L2")
	}
}

func TestPortWriteBufferAbsorbsStoreMisses(t *testing.T) {
	_, p, r := testMachine(t, osmodel.Solo)
	// Four store misses to distinct lines proceed immediately.
	var now sim.Ticks
	for i := 0; i < 4; i++ {
		mi := p.touch(now, access{op: isa.Store, va: r.Base + uint64(i)*128}, false)
		if mi.Done > now+p.cyc(25) {
			t.Fatalf("store %d stalled: %d -> %d", i, now, mi.Done)
		}
		now = mi.Done
	}
}

func TestPortPrefetchFillsCache(t *testing.T) {
	_, p, r := testMachine(t, osmodel.Solo)
	p.prefetch(0, access{op: isa.Prefetch, va: r.Base}, false)
	if p.l2.Lookup(pToPA(p, r.Base)) == cache.Invalid {
		t.Fatal("prefetch did not fill L2")
	}
	mi := p.touch(sim.NS(10000), access{op: isa.Load, va: r.Base}, false)
	if !mi.L1Hit {
		t.Fatalf("post-prefetch load missed: %+v", mi)
	}
}

func TestPortPrefetchDroppedOnTLBMissUnderSimOS(t *testing.T) {
	_, p, r := testMachine(t, osmodel.SimOS)
	p.prefetch(0, access{op: isa.Prefetch, va: r.Base}, false) // page never touched: TLB cold -> dropped
	if reads := p.m.mem.Directory().Stats().Reads; reads != 0 {
		t.Fatalf("dropped prefetch reached the directory: %d reads", reads)
	}
	if p.l2.Lookup(pToPA(p, r.Base)) != cache.Invalid {
		t.Fatal("dropped prefetch filled the cache")
	}
}

func TestPortTLBPenaltyCharged(t *testing.T) {
	_, p, r := testMachine(t, osmodel.SimOS)
	mi := p.touch(0, access{op: isa.Load, va: r.Base}, false)
	if !mi.TLBMiss() {
		t.Fatal("first touch must miss the TLB")
	}
	// The same cold load under Solo pays neither the refill nor the fault.
	_, solo, sr := testMachine(t, osmodel.Solo)
	free := solo.touch(0, access{op: isa.Load, va: sr.Base}, false)
	if want := free.Done + p.cyc(65+100); mi.Done != want {
		t.Fatalf("cold SimOS load done at %d, want %d (Solo's %d plus refill and fault)", mi.Done, want, free.Done)
	}
}

func TestPortCacheOpWritesBackDirtyLine(t *testing.T) {
	_, p, r := testMachine(t, osmodel.Solo)
	st := p.touch(0, access{op: isa.Store, va: r.Base}, false)
	mi := p.touch(st.Done, access{op: isa.CacheOp, va: r.Base}, false)
	if !mi.DirtyCacheOp() {
		t.Fatal("dirty line not detected")
	}
	if p.l2.Lookup(pToPA(p, r.Base)) != cache.Invalid || p.l1.Lookup(pToPA(p, r.Base)) != cache.Invalid {
		t.Fatal("line survived writeback-invalidate")
	}
	// Directory must show the line back in memory.
	stDir, _, _ := p.m.mem.Directory().State(p.l2.Config().LineAddr(pToPA(p, r.Base)))
	_ = stDir // state checked indirectly: a re-load must be a clean case
	mi2 := p.touch(mi.Done+sim.NS(5000), access{op: isa.Load, va: r.Base}, false)
	if !mi2.WentToMemory() {
		t.Fatal("re-load after flush should go to memory")
	}
}

// pToPA translates a VA through the machine's page table (test helper).
func pToPA(p *memPort, va uint64) uint64 {
	pp, ok := p.m.os.PageTable().Lookup(va)
	if !ok {
		return 0
	}
	return pp.Addr(va)
}

func TestPortInclusionOnL2Eviction(t *testing.T) {
	_, p, r := testMachine(t, osmodel.Solo)
	// Solo hands out frames in touch order, so to get three physical
	// addresses one L2 way apart (64 KB = 16 pages) we touch 15 filler
	// pages between each conflicting target.
	var now sim.Ticks
	target := func(i int) uint64 { return r.Base + uint64(i)*16*vm.PageSize }
	for i := 0; i < 3; i++ {
		now = p.touch(now, access{op: isa.Load, va: target(i)}, false).Done
		for f := 1; f < 16; f++ {
			now = p.touch(now, access{op: isa.Load, va: target(i) + uint64(f)*vm.PageSize}, false).Done
		}
	}
	pa0, pa1, pa2 := pToPA(p, target(0)), pToPA(p, target(1)), pToPA(p, target(2))
	set := func(pa uint64) uint64 { return (pa >> 7) & (p.l2.Config().Sets() - 1) }
	if set(pa0) != set(pa1) || set(pa1) != set(pa2) {
		t.Fatalf("targets not conflicting: sets %d %d %d", set(pa0), set(pa1), set(pa2))
	}
	if p.l2.Lookup(pa0) != cache.Invalid {
		t.Fatal("victim still in L2")
	}
	if p.l1.Lookup(pa0) != cache.Invalid {
		t.Fatal("inclusion violated: L1 retains an evicted L2 line")
	}
}

// TestPendingOpSize keeps the barrier's sort element at the 56 bytes the
// typed merge sort was measured with: the sort moves pendingOps by value.
func TestPendingOpSize(t *testing.T) {
	if n := unsafe.Sizeof(pendingOp{}); n > 56 {
		t.Fatalf("pendingOp is %d bytes, want <= 56", n)
	}
}
