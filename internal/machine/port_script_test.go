package machine

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flashsim/internal/cache"
	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/osmodel"
	"flashsim/internal/sim"
	"flashsim/internal/vm"
)

// transcriptDir, when set, receives one transcript file per pinned
// configuration: run it at two commits and diff to find the step where
// they part.
var transcriptDir = flag.String("port.transcripts", "", "write TestPortScriptPinned transcripts to this directory")

// portAccess issues one access on p: through the cpu.Port entry the
// parallel phase uses (canDefer), through the barrier executor's
// synchronous re-entry, or as a functional warm touch. It is the one
// place the scripted tests spell the port's internal entry points.
func portAccess(p *memPort, t sim.Ticks, op isa.Op, va uint64, warm, canDefer bool) cpu.MemInfo {
	switch {
	case warm && canDefer:
		p.warmTouch(t, op, va)
	case warm:
		if op != isa.Prefetch {
			p.touch(t, access{op: op, va: va, warm: true}, false)
		}
	case op == isa.Prefetch && !canDefer:
		p.prefetch(t, access{op: op, va: va}, false)
	case !canDefer:
		return p.touch(t, access{op: op, va: va}, false)
	case op == isa.Load:
		return p.Load(t, va, 8)
	case op == isa.Store:
		return p.Store(t, va, 8)
	case op == isa.Prefetch:
		p.Prefetch(t, va)
	default:
		return p.CacheOp(t, va, 0)
	}
	return cpu.MemInfo{}
}

// memInfoText renders mi the way %+v did when the pinned transcripts
// were recorded and cpu.MemInfo still had eight fields: the same names
// in the same order, so the hashes outlive the flag set.
func memInfoText(mi cpu.MemInfo) string {
	return fmt.Sprintf("{Done:%d L1Hit:%t L2Hit:%t TLBMiss:%t WentToMemory:%t IssuedAt:%d DirtyCacheOp:%t Pending:%t}",
		mi.Done, mi.L1Hit, mi.L2Hit(), mi.TLBMiss(), mi.WentToMemory(), mi.IssuedAt, mi.DirtyCacheOp(), mi.Pending())
}

// cacheStatsText renders s the way %+v did when the pinned transcripts
// were recorded and cache.Stats abbreviated its last two names.
func cacheStatsText(s cache.Stats) string {
	return fmt.Sprintf("{Hits:%d Misses:%d Evictions:%d Writebacks:%d Invals:%d Interventio:%d}",
		s.Hits, s.Misses, s.Evictions, s.Writebacks, s.Invalidations, s.Interventions)
}

// scriptCore stands in for a suspended processor: Deliver writes the
// MemInfo the barrier hands back into the rig's transcript.
type scriptCore struct {
	rig  *portRig
	node int
}

func (c *scriptCore) Run(t sim.Ticks) cpu.Outcome { return cpu.Outcome{Kind: cpu.Finished, Time: t} }
func (c *scriptCore) Instructions() uint64        { return 0 }
func (c *scriptCore) Deliver(mi cpu.MemInfo) sim.Ticks {
	fmt.Fprintf(&c.rig.log, "  n%d <- %s\n", c.node, memInfoText(mi))
	c.rig.blocked[c.node] = false
	return mi.Done
}

// portRig drives the ports of a built machine by hand. In deferred mode
// it plays the engine: accesses enter through the cpu.Port methods, and
// barrier merges the nodes' pending ops and executes them in
// (t, node, seq) order through Machine.execOp. In synchronous mode every
// access takes the canDefer=false body and completes inline. Either way
// each access and each delivery appends one line to the transcript.
type portRig struct {
	t        testing.TB
	m        *Machine
	base     uint64
	deferred bool
	quiet    bool // keep no transcript
	now      sim.Ticks
	blocked  []bool
	log      strings.Builder
}

func newPortRig(t testing.TB, osKind osmodel.Kind, procs int, deferred bool) *portRig {
	t.Helper()
	cfg := Base(procs, true)
	cfg.Name = "port-script"
	cfg.OS = osmodel.Config{Kind: osKind, TLBEntries: 64, TLBHandlerCycles: 65, PageFaultCycles: 100, SyscallCycles: 10}
	cfg.ModelL2InterfaceOccupancy = true
	cfg.CheckCoherence = true
	space := emitter.NewAddressSpace()
	region := space.AllocPageAligned("data", 4<<20, emitter.Placement{Kind: emitter.PlaceInterleaved})
	r := &portRig{t: t, base: region.Base, deferred: deferred, blocked: make([]bool, procs)}
	r.m = build(cfg, space, func(i int, _ sim.Clock, _ *memPort) cpu.CPU { return &scriptCore{rig: r, node: i} })
	return r
}

// page returns the address of byte off of the region's i-th page.
func (r *portRig) page(i int, off uint64) uint64 { return r.base + uint64(i)*vm.PageSize + off }

// tick advances the rig's clock.
func (r *portRig) tick(ns float64) { r.now += sim.NS(ns) }

// do issues one access from node n at the rig's clock. Nodes beyond the
// machine's size fold onto node 0, so one script serves both machine
// sizes. A node the port suspended cannot issue again before the
// barrier, exactly as a core could not.
func (r *portRig) do(n int, op isa.Op, va uint64, warm bool) {
	n %= len(r.m.nodes)
	if r.blocked[n] {
		r.barrier()
	}
	mi := portAccess(r.m.nodes[n].port, r.now, op, va, warm, r.deferred)
	r.blocked[n] = mi.Pending()
	if !r.quiet {
		w := ""
		if warm {
			w = "warm-"
		}
		fmt.Fprintf(&r.log, "%d n%d %s%v +%#x -> %s\n", r.now, n, w, op, va-r.base, memInfoText(mi))
	}
	r.tick(7)
}

func (r *portRig) ld(n int, va uint64)  { r.do(n, isa.Load, va, false) }
func (r *portRig) st(n int, va uint64)  { r.do(n, isa.Store, va, false) }
func (r *portRig) pf(n int, va uint64)  { r.do(n, isa.Prefetch, va, false) }
func (r *portRig) co(n int, va uint64)  { r.do(n, isa.CacheOp, va, false) }
func (r *portRig) wld(n int, va uint64) { r.do(n, isa.Load, va, true) }
func (r *portRig) wst(n int, va uint64) { r.do(n, isa.Store, va, true) }
func (r *portRig) wpf(n int, va uint64) { r.do(n, isa.Prefetch, va, true) }
func (r *portRig) wco(n int, va uint64) { r.do(n, isa.CacheOp, va, true) }

// barrier executes every pending op the way Machine.drive does.
func (r *portRig) barrier() {
	var merged []pendingOp
	for _, n := range r.m.nodes {
		merged = append(merged, n.port.ops...)
		n.port.ops = n.port.ops[:0]
	}
	slices.SortFunc(merged, compareOps)
	for i := range merged {
		r.m.execOp(&merged[i])
	}
	if r.m.runErr != nil {
		r.t.Fatal(r.m.runErr)
	}
	if !r.quiet {
		fmt.Fprintf(&r.log, "barrier: %d ops\n", len(merged))
	}
}

// settle runs the barrier and then lets every outstanding miss, write
// and line transfer complete, so the next step starts from quiet
// timing state.
func (r *portRig) settle() {
	r.barrier()
	r.tick(50_000)
}

// finish drains the last ops and appends the final counters.
func (r *portRig) finish() string {
	r.barrier()
	for _, n := range r.m.nodes {
		p := n.port
		fmt.Fprintf(&r.log, "n%d port {CaseCounts:%v}\n  l1 %s\n  l2 %s\n  merges %d\n",
			n.id, p.cases, cacheStatsText(p.l1.Stats()), cacheStatsText(p.l2.Stats()), p.mshr.Merges())
	}
	fmt.Fprintf(&r.log, "dir %+v\ntlb %+v\nos %+v\n", r.m.mem.Directory().Stats(), r.m.os.TLBStats(), r.m.os.Counters())
	return r.log.String()
}

// seeded returns a xorshift generator for the scripts: next(n) draws
// from [0, n).
func seeded(seed uint64) func(n uint64) uint64 {
	return func(n uint64) uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed % n
	}
}

// portScript is the pinned script. Each block names the arm of the
// memory path it exists to reach; pages are never reused across blocks
// unless the block says so, so an arm does not depend on its neighbours.
func portScript(r *portRig) {
	const (
		l1Line = 32
		l2Line = 128
	)

	// Cold-fault re-run of every op kind, timed and warm: the first
	// touch of a page defers the whole access (a SimOS prefetch drops on
	// its TLB miss instead).
	r.ld(0, r.page(0, 0))
	r.st(0, r.page(1, 0))
	r.co(0, r.page(2, 0))
	r.pf(0, r.page(3, 0))
	r.wld(0, r.page(4, 0))
	r.wst(0, r.page(5, 0))
	r.wco(0, r.page(6, 0))
	r.wpf(0, r.page(7, 0))
	r.settle()

	// L1 and L2 hits: the second L1 sub-line of a fetched L2 line hits
	// in L2; a store to the exclusively granted line upgrades silently;
	// a prefetch or CACHE of a resident clean line stays on the node.
	for _, warm := range []bool{false, true} {
		pg := 0
		if warm {
			pg = 4
		}
		r.do(0, isa.Load, r.page(pg, 0), warm)
		r.do(0, isa.Load, r.page(pg, 0), warm)
		r.do(0, isa.Load, r.page(pg, l1Line), warm)
		r.do(0, isa.Store, r.page(pg, l1Line), warm)
		r.do(0, isa.Store, r.page(pg, 2*l1Line), warm)
		r.do(0, isa.Load, r.page(pg, 2*l1Line), warm)
		r.do(0, isa.Prefetch, r.page(pg, 0), warm)
		r.do(0, isa.Load, r.page(pg, l2Line), warm)
		r.settle()
		r.do(0, isa.CacheOp, r.page(pg, l2Line), warm)
		r.settle()
	}

	// L2 misses on mapped pages: the deferred miss tails.
	r.ld(0, r.page(0, 2*l2Line))
	r.settle()
	r.wld(0, r.page(0, 3*l2Line))
	r.wst(0, r.page(0, 4*l2Line))
	r.settle()
	r.pf(0, r.page(0, 5*l2Line))
	r.settle()

	// A store burst: four misses take the write buffer's four slots as
	// placeholders, the fifth finds only placeholders and blocks; after
	// the barrier patches them, a sixth finds the buffer full of real
	// drain times and stalls on the oldest.
	for i := 0; i < 5; i++ {
		r.st(0, r.page(1, uint64(1+i)*l2Line))
	}
	r.barrier()
	r.st(0, r.page(1, 6*l2Line))
	r.st(0, r.page(1, 7*l2Line))
	r.settle()

	// MSHR merge: a demand access right behind a prefetch of the same
	// line joins the outstanding miss.
	r.pf(0, r.page(0, 8*l2Line))
	r.ld(0, r.page(0, 8*l2Line))
	r.settle()
	r.pf(0, r.page(0, 9*l2Line))
	r.st(0, r.page(0, 9*l2Line))
	r.settle()

	// Landed in between: the same pairs far enough apart that the
	// prefetch's miss has retired by the time the demand tail runs, so
	// the tail's recheck finds the line (exclusive: no upgrade needed).
	r.pf(0, r.page(0, 10*l2Line))
	r.tick(20_000)
	r.ld(0, r.page(0, 10*l2Line))
	r.settle()
	r.pf(0, r.page(0, 11*l2Line))
	r.tick(20_000)
	r.st(0, r.page(0, 11*l2Line))
	r.settle()
	// ...and the warm tails' rechecks, behind a warm touch of the line.
	r.wld(0, r.page(0, 12*l2Line))
	r.wld(0, r.page(0, 12*l2Line+l1Line))
	r.wld(0, r.page(0, 13*l2Line))
	r.wst(0, r.page(0, 13*l2Line+l1Line))
	r.settle()
	// A prefetch behind a store to the same line finds it landed.
	r.st(0, r.page(0, 14*l2Line))
	r.pf(0, r.page(0, 14*l2Line))
	r.settle()

	// A line that left the caches while its miss is still outstanding:
	// the CACHE flush empties L1/L2, the MSHR still holds the line, and
	// a prefetch, a load and a store each merge with it.
	for i, op := range []isa.Op{isa.Prefetch, isa.Load, isa.Store} {
		va := r.page(0, uint64(15+i)*l2Line)
		r.pf(0, va)
		r.barrier()
		r.co(0, va)
		r.do(0, op, va, false)
		r.settle()
	}

	// More prefetches in flight than MSHRs: the fifth waits for a
	// register.
	for i := 0; i < 6; i++ {
		r.pf(0, r.page(0, uint64(18+i)*l2Line))
	}
	r.settle()

	// CACHE of a dirty line: the writeback is deferred (timed and warm).
	r.st(0, r.page(2, l2Line))
	r.settle()
	r.co(0, r.page(2, l2Line))
	r.wst(0, r.page(6, l2Line))
	r.settle()
	r.wco(0, r.page(6, l2Line))
	r.settle()

	// Two nodes on the same lines: a remote read of a dirty line, a
	// shared line upgraded by a store (also as a prefetched Shared copy
	// that landed in between: still needs the upgrade), invalidation of
	// the other node's copy, and the warm versions of each.
	r.ld(1, r.page(1, 0))
	r.settle()
	r.st(0, r.page(1, 0))
	r.settle()
	r.st(1, r.page(1, l1Line))
	r.settle()
	r.ld(1, r.page(8, 0))
	r.settle()
	r.pf(0, r.page(8, 0)) // SimOS: n0's TLB has not seen page 8 — dropped
	r.ld(0, r.page(8, l2Line))
	r.settle()
	r.pf(0, r.page(8, 0))
	r.tick(20_000)
	r.st(0, r.page(8, 0))
	r.settle()
	r.wld(1, r.page(8, 0))
	r.wst(0, r.page(8, 0))
	r.settle()
	r.wst(1, r.page(8, 0))
	r.wld(0, r.page(8, 0))
	r.settle()

	// TLB misses without a fault: a page another node (or, on one node,
	// a 70-page sweep since) mapped. CACHE charges its refill to time
	// only; a warm touch refills without charging anything.
	r.ld(1, r.page(9, 0))
	r.st(1, r.page(10, 0))
	r.st(1, r.page(11, 0))
	r.ld(1, r.page(12, 0))
	r.settle()
	for i := 0; i < 70; i++ {
		r.wld(0, r.page(100+i, 0))
		r.barrier()
	}
	r.ld(0, r.page(9, 0))
	r.settle()
	r.st(0, r.page(10, 0))
	r.settle()
	r.co(0, r.page(11, 0))
	r.settle()
	r.wld(0, r.page(12, 0))
	r.settle()

	// L2 evictions. Lines one page apart share a set every 16 pages
	// (2-way, 64 KB ways), so 48 pages push two generations of victims
	// out of each set: clean-exclusive victims (replacement hints) from
	// the load sweeps, dirty victims (writebacks) from the store sweeps,
	// timed and warm.
	for i := 0; i < 48; i++ {
		r.ld(0, r.page(200+i, 0))
		r.barrier()
	}
	r.settle()
	for i := 0; i < 48; i++ {
		r.st(0, r.page(200+i, l2Line))
		if i%3 == 2 {
			r.barrier()
		}
	}
	r.settle()
	for i := 0; i < 48; i++ {
		r.wld(1, r.page(200+i, 2*l2Line))
		r.wst(1, r.page(200+i, 3*l2Line))
		r.barrier()
	}
	r.settle()

	// A seeded mix over a pool small enough to keep colliding: every op
	// kind, both nodes, timed and warm interleaved, a third of the
	// accesses re-touching the node's previous line, irregular gaps and
	// barriers. It pins the interactions the blocks above keep apart.
	next := seeded(0x9E3779B97F4A7C15)
	ops := []isa.Op{isa.Load, isa.Load, isa.Load, isa.Store, isa.Store, isa.Prefetch, isa.CacheOp}
	last := [2]uint64{r.page(300, 0), r.page(300, 0)}
	for i := 0; i < 4000; i++ {
		n := int(next(2))
		if next(3) != 0 {
			last[n] = r.page(300+int(next(48)), next(4)*l2Line+next(4)*l1Line)
		}
		r.do(n, ops[next(uint64(len(ops)))], last[n], next(4) == 0)
		switch next(12) {
		case 0:
			r.settle()
		case 1, 2, 3:
			r.barrier()
		case 4:
			r.tick(900)
		}
	}
}

// TestPortScriptPinned pins the memory port case by case. One
// deterministic script reaches every arm of the access path — each of
// load, store, prefetch and CACHE as an L1 hit, an L2 hit, a miss, an
// MSHR merge, a landed-in-between recheck, a cold-fault re-run and a
// TLB miss, timed and warm, plus the write buffer full of placeholders,
// the deferred CACHE writeback and clean-exclusive and dirty L2
// evictions — on a 1-node and a 2-node machine under both OS models,
// once through the deferred path and once through the synchronous
// bodies. The constants are FNV-1a hashes of the transcript: every
// returned or delivered MemInfo, then each port's protocol-case counts,
// L1/L2 cache stats and MSHR merges, and the directory, TLB and OS
// counters. They were recorded before the five access bodies were folded
// into one path, and re-recorded only when the port's write-only
// counters were deleted, with every MemInfo line unchanged. A model fix
// moves them deliberately; a refactor must not. To find where a mismatch
// starts, write the transcripts with -port.transcripts at both commits
// and diff them.
func TestPortScriptPinned(t *testing.T) {
	pins := map[string]uint64{
		"solo/1p/deferred":  0x0340c7b4f25e0552,
		"solo/1p/sync":      0xd15787cda891a146,
		"solo/2p/deferred":  0x85cb1d4b42085c7a,
		"solo/2p/sync":      0x95d6df29d9286af2,
		"simos/1p/deferred": 0x8bbb4f878fc27069,
		"simos/1p/sync":     0xca9e7e5f8d38b751,
		"simos/2p/deferred": 0xed8cc49ceb417d85,
		"simos/2p/sync":     0x6a3cc343d1ecd1cf,
	}
	for _, osKind := range []osmodel.Kind{osmodel.Solo, osmodel.SimOS} {
		for _, procs := range []int{1, 2} {
			for _, deferred := range []bool{true, false} {
				mode := "sync"
				if deferred {
					mode = "deferred"
				}
				name := fmt.Sprintf("%v/%dp/%s", osKind, procs, mode)
				t.Run(name, func(t *testing.T) {
					r := newPortRig(t, osKind, procs, deferred)
					portScript(r)
					transcript := r.finish()
					h := fnv.New64a()
					h.Write([]byte(transcript))
					if got := h.Sum64(); got != pins[name] {
						t.Errorf("transcript hash %#x, pinned %#x", got, pins[name])
					}
					if *transcriptDir != "" {
						file := filepath.Join(*transcriptDir, strings.ReplaceAll(name, "/", "-")+".txt")
						if err := os.WriteFile(file, []byte(transcript), 0o644); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestWarmLeavesTimedState checks that the functional warm touch walks
// the same state machine as the timed access: the same 200k seeded
// loads, stores and CACHE ops, each issued after everything before it
// has completed, leave a machine driven through the timed path and one
// driven by warm touches with identical L1/L2 counters, protocol case
// counts, directory counters and per-line L1/L2 states. Only time and
// the timing-only structures may differ. (Overlapping accesses are
// excluded because there the timed path alone has MSHRs to merge with.)
func TestWarmLeavesTimedState(t *testing.T) {
	const (
		pages   = 64 // four per L2 color: every set sees evictions
		l1Line  = 32
		perPage = vm.PageSize / l1Line
	)
	for _, osKind := range []osmodel.Kind{osmodel.Solo, osmodel.SimOS} {
		t.Run(osKind.String(), func(t *testing.T) {
			timed := newPortRig(t, osKind, 2, false)
			warm := newPortRig(t, osKind, 2, false)
			timed.quiet, warm.quiet = true, true
			next := seeded(0x2545F4914F6CDD1D)
			ops := []isa.Op{isa.Load, isa.Load, isa.Load, isa.Store, isa.Store, isa.CacheOp}
			var last [2]uint64
			for i := 0; i < 200_000; i++ {
				n := int(next(2))
				if i < 2 || next(2) == 0 {
					last[n] = timed.page(int(next(pages)), next(perPage)*l1Line)
				}
				op := ops[next(uint64(len(ops)))]
				timed.do(n, op, last[n], false)
				warm.do(n, op, last[n], true)
				timed.tick(50_000)
				warm.tick(50_000)
			}
			for n := range timed.m.nodes {
				tp, wp := timed.m.nodes[n].port, warm.m.nodes[n].port
				if tp.l1.Stats() != wp.l1.Stats() || tp.l2.Stats() != wp.l2.Stats() {
					t.Errorf("node %d cache counters: timed L1 %+v L2 %+v, warm L1 %+v L2 %+v",
						n, tp.l1.Stats(), tp.l2.Stats(), wp.l1.Stats(), wp.l2.Stats())
				}
				if tp.cases != wp.cases {
					t.Errorf("node %d case counts: timed %v, warm %v", n, tp.cases, wp.cases)
				}
				for pg := 0; pg < pages; pg++ {
					for ln := uint64(0); ln < perPage; ln++ {
						pa := pToPA(tp, timed.page(pg, ln*l1Line))
						if pa != pToPA(wp, warm.page(pg, ln*l1Line)) {
							t.Fatalf("page %d mapped differently", pg)
						}
						if tp.l1.Lookup(pa) != wp.l1.Lookup(pa) || tp.l2.Lookup(pa) != wp.l2.Lookup(pa) {
							t.Fatalf("node %d line %#x: timed L1 %v L2 %v, warm L1 %v L2 %v", n, pa,
								tp.l1.Lookup(pa), tp.l2.Lookup(pa), wp.l1.Lookup(pa), wp.l2.Lookup(pa))
						}
					}
				}
			}
			if td, wd := timed.m.mem.Directory().Stats(), warm.m.mem.Directory().Stats(); td != wd {
				t.Errorf("directory counters: timed %+v, warm %+v", td, wd)
			}
		})
	}
}
