package memsys

import (
	"testing"

	"flashsim/internal/proto"
	"flashsim/internal/sim"
	"flashsim/internal/vm"
)

func pa(node int, frame uint32) uint64 {
	return vm.PhysPage{Node: int32(node), Frame: frame}.Addr(0)
}

func newFL(nodes int) *FlashLite {
	return NewFlashLite(DefaultFlashConfig(nodes, TrueTiming()))
}

func TestFlashLiteLocalCleanRead(t *testing.T) {
	f := newFL(4)
	res := f.Read(0, 0, pa(0, 1))
	if res.Case != proto.LocalClean {
		t.Fatalf("case %v", res.Case)
	}
	if !res.Exclusive {
		t.Fatal("first read must be granted exclusive")
	}
	if res.Done == 0 {
		t.Fatal("zero latency")
	}
}

func TestFlashLiteCaseLatencyOrdering(t *testing.T) {
	line := func(frame uint32, home int) uint64 { return pa(home, frame) }
	latency := func(setup func(f *FlashLite), home, req int, l uint64) sim.Ticks {
		f := newFL(4)
		if setup != nil {
			setup(f)
		}
		return f.Read(0, req, l).Done
	}
	lc := latency(nil, 0, 0, line(1, 0))
	rc := latency(nil, 1, 0, line(1, 1))
	ldr := latency(func(f *FlashLite) { f.Write(0, 1, line(2, 0)) }, 0, 0, line(2, 0))
	rdr := latency(func(f *FlashLite) { f.Write(0, 2, line(3, 1)) }, 1, 0, line(3, 1))
	if !(lc < rc && rc < ldr && ldr < rdr) {
		t.Fatalf("ordering violated: lc=%d rc=%d ldr=%d rdr=%d", lc, rc, ldr, rdr)
	}
}

func TestFlashLiteWriteInvalidatesThroughPeers(t *testing.T) {
	f := newFL(4)
	invalidated := map[int]bool{}
	f.SetPeers(peersFunc{
		inv: func(node int, line uint64) bool { invalidated[node] = true; return true },
	})
	l := pa(0, 5)
	f.Read(0, 1, l)
	f.Read(100, 2, l)
	f.Write(200, 3, l)
	if n := f.Directory().Stats().Invalidations; n != 2 || !invalidated[1] || !invalidated[2] {
		t.Fatalf("%d invalidations sent, peers invalidated %v; want nodes 1 and 2", n, invalidated)
	}
}

func TestFlashLiteDirtyForwardDowngrades(t *testing.T) {
	f := newFL(4)
	downgraded := false
	f.SetPeers(peersFunc{
		down: func(node int, line uint64) (bool, bool) { downgraded = node == 2; return true, true },
	})
	l := pa(0, 7)
	f.Write(0, 2, l) // node 2 owns dirty
	res := f.Read(100, 1, l)
	if res.Case != proto.RemoteDirtyRemote {
		t.Fatalf("case %v", res.Case)
	}
	if !downgraded {
		t.Fatal("owner not downgraded")
	}
}

func TestFlashLiteHotspotQueuing(t *testing.T) {
	// Many concurrent reads to the same home must queue at the PP;
	// the same traffic on the NUMA model must not (beyond its memory
	// banks).
	fl := newFL(16)
	var flLast sim.Ticks
	for i := 0; i < 64; i++ {
		r := fl.Read(0, 1+(i%15), pa(0, uint32(i)))
		if r.Done > flLast {
			flLast = r.Done
		}
	}
	nu := NewNUMA(DefaultNUMAConfig(16))
	var nuLast sim.Ticks
	for i := 0; i < 64; i++ {
		r := nu.Read(0, 1+(i%15), pa(0, uint32(i)))
		if r.Done > nuLast {
			nuLast = r.Done
		}
	}
	if flLast <= nuLast {
		t.Fatalf("FlashLite hotspot (%d) should exceed NUMA's (%d): occupancy is the difference",
			flLast, nuLast)
	}
}

func TestNUMACasesAndExclusive(t *testing.T) {
	n := NewNUMA(DefaultNUMAConfig(4))
	r1 := n.Read(0, 0, pa(0, 1))
	if r1.Case != proto.LocalClean || !r1.Exclusive {
		t.Fatalf("numa first read %+v", r1)
	}
	r2 := n.Read(100, 1, pa(0, 1))
	if r2.Case != proto.LocalDirtyRemote && r2.Case != proto.RemoteDirtyHome {
		t.Fatalf("numa dirty read case %v", r2.Case)
	}
}

func TestNUMAWriteUpgrade(t *testing.T) {
	n := NewNUMA(DefaultNUMAConfig(4))
	l := pa(0, 3)
	n.Read(0, 1, l)
	n.Read(10, 2, l)
	res := n.Write(100, 1, l)
	if res.Case != proto.Upgrade {
		t.Fatalf("case %v", res.Case)
	}
	// Node 1 upgrades its own copy: only node 2's is invalidated.
	if inv := n.Directory().Stats().Invalidations; inv != 1 {
		t.Fatalf("invals %d", inv)
	}
}

func TestWritebackAndReplaceUpdateDirectory(t *testing.T) {
	for _, sys := range []System{newFL(4), NewNUMA(DefaultNUMAConfig(4))} {
		l := pa(0, 9)
		sys.Write(0, 2, l)
		sys.Writeback(100, 2, l)
		st, owner, _ := sys.Directory().State(l)
		if st != proto.DirUnowned || owner != -1 {
			t.Fatalf("%s: writeback left %v/%d", sys.Name(), st, owner)
		}
		l2 := pa(0, 10)
		sys.Read(200, 2, l2) // exclusive grant
		sys.Replace(300, 2, l2)
		st, _, _ = sys.Directory().State(l2)
		if st != proto.DirUnowned {
			t.Fatalf("%s: replace left %v", sys.Name(), st)
		}
	}
}

// TestFlashLiteSteadyStateDoesNotAllocate pins the loaded path: once
// every line of a sharing pattern has its directory entry and every
// controller, bank, link and router on its routes has made its
// reservation window, reads (clean, dirty-remote, three-hop), writes
// with invalidation fan-out, upgrades and writebacks allocate nothing.
func TestFlashLiteSteadyStateDoesNotAllocate(t *testing.T) {
	const nodes, lines = 8, 64
	f := newFL(nodes)
	now := sim.Ticks(0)
	cycle := func() {
		for i := 0; i < lines; i++ {
			h := i % nodes
			l := pa(h, uint32(1+i))
			r1, r2, w := (i+1)%nodes, (i+3)%nodes, (i+6)%nodes
			now = f.Read(now, r1, l).Done
			f.Read(now+5, r2, l) // three-hop when r1 holds it exclusive
			f.Read(now+5, h, l)
			now = f.Write(now+10, w, l).Done // invalidates the sharers
			f.Write(now, w, l)               // already owned: upgrade
			f.Read(now+20, h, l)             // dirty at a remote node
			f.Write(now+25, h, l)
			f.Read(now+30, r2, l) // dirty at the home node
			if i%4 == 0 {
				f.Write(now+40, r1, l)
				f.Writeback(now+50, r1, l)
			}
		}
	}
	for k := 0; k < 3; k++ {
		cycle()
	}
	// One run is a whole cycle of several hundred requests: AllocsPerRun
	// reports whole allocations per run.
	if a := testing.AllocsPerRun(5, cycle); a != 0 {
		t.Fatalf("a warm cycle of %d lines allocates %.0f objects", lines, a)
	}
	st := f.Directory().Stats()
	for c := proto.LocalClean; c < proto.NumCases; c++ {
		if st.CaseCounts[c] == 0 {
			t.Errorf("pattern never exercised case %v", c)
		}
	}
}

func TestNames(t *testing.T) {
	if newFL(2).Name() != "flashlite" || NewNUMA(DefaultNUMAConfig(2)).Name() != "numa" {
		t.Fatal("names")
	}
}

func TestDesignVsTrueTimingDiffer(t *testing.T) {
	d, tr := DesignTiming(), TrueTiming()
	if d == tr {
		t.Fatal("design timing must differ from as-built timing")
	}
	if d.InterventionNS <= tr.InterventionNS {
		t.Fatal("design intervention estimate should be pessimistic")
	}
	if d.InboxNS >= tr.InboxNS {
		t.Fatal("design interface estimate should be optimistic")
	}
}

// peersFunc adapts closures to the Peers interface.
type peersFunc struct {
	inv  func(int, uint64) bool
	down func(int, uint64) (bool, bool)
}

func (p peersFunc) Invalidate(n int, l uint64) bool {
	if p.inv == nil {
		return true
	}
	return p.inv(n, l)
}

func (p peersFunc) Downgrade(n int, l uint64) (bool, bool) {
	if p.down == nil {
		return true, true
	}
	return p.down(n, l)
}
