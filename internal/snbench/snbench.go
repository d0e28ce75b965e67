// Package snbench reimplements the microbenchmarks the paper used to
// find and fix simulator timing errors:
//
//   - dependent-load chains (p = *p, the lmbench technique) that miss in
//     the secondary cache, one variant per protocol case of Table 3;
//   - a TLB-miss timer that exposes the true 65-cycle handler cost the
//     processor models charged as 25 (Mipsy) and 35 (MXS);
//   - a back-to-back independent-load (restart time) test, sensitive to
//     the secondary-cache interface occupancy and the core-to-pins
//     restart delay.
//
// Each microbenchmark is an ordinary emitter.Program; helper functions
// extract the metric from the machine.Result. The Calibrator
// (internal/core) runs them against the hardware reference and tunes
// simulator parameters until the metrics match — the paper's "closing
// the loop".
package snbench

import (
	"fmt"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
)

// The suite is fixed: these sizes are part of what the calibrator
// measures, so every run of a microbenchmark is the same program.
const (
	// chaseLines is the dependent-chain length (lines of 128 bytes;
	// 256 lines = 32 KB, safely inside one L2 way of every
	// configuration so the dirtying cache retains ownership).
	chaseLines = 256
	// tlbPages, tlbFitPages and tlbRounds shape the TLB timer: pages
	// chased in the miss phase, pages chased in the hit phase, and
	// chase rounds per phase.
	tlbPages    = 128
	tlbFitPages = 32
	tlbRounds   = 4
	// RestartLines is the restart test's stream length in cache lines
	// as the calibrator runs it.
	RestartLines = 1024
)

const (
	lineBytes    = 128
	linesPerPage = 4096 / lineBytes
	// barSetup separates page warming from the dirtying pass.
	barSetup uint32 = 23
)

// ChaseCount returns the number of timed loads a DependentLoads(c) run
// performs: clean cases skip the warmed page-head lines.
func ChaseCount(c proto.Case) int {
	if _, dirtier := caseRoles(c); dirtier >= 0 {
		return chaseLines
	}
	return chaseLines - chaseLines/linesPerPage
}

// CaseProcs returns the processor count a dependent-load case needs.
// All cases run on 4 processors so that "remote" is one or two real
// network hops.
func CaseProcs(proto.Case) int { return 4 }

// caseRoles returns (homeNode, dirtier) for a protocol case; dirtier -1
// means nobody writes the chain (memory stays clean).
func caseRoles(c proto.Case) (home, dirtier int) {
	switch c {
	case proto.LocalClean:
		return 0, -1
	case proto.LocalDirtyRemote:
		return 0, 1
	case proto.RemoteClean:
		return 1, -1
	case proto.RemoteDirtyHome:
		return 1, 1
	case proto.RemoteDirtyRemote:
		return 1, 2
	default:
		panic(fmt.Sprintf("snbench: no dependent-load test for case %v", c))
	}
}

// DependentLoads returns the snbench dependent-load test for the given
// protocol case: node 0 chases a pointer chain of chaseLines cache
// lines whose home and ownership are arranged so that every load
// exercises exactly that case.
func DependentLoads(c proto.Case) emitter.Program {
	home, dirtier := caseRoles(c)
	return emitter.Program{
		Name:    "snbench-loads",
		Variant: c.String(),
		Threads: CaseProcs(c),
		Setup: func(as *emitter.AddressSpace) any {
			return as.AllocPageAligned("chain", chaseLines*lineBytes,
				emitter.Placement{Kind: emitter.PlaceOnNode, Node: home})
		},
		Body: func(t *emitter.Thread, shared any) {
			chain := shared.(emitter.Region)
			// Page warming: the requester touches the first line of
			// each page so that cold page faults and TLB refills land
			// outside the timed section. The chase skips those lines.
			if t.ID == 0 {
				var prev emitter.Val
				for i := 0; i < chaseLines; i += linesPerPage {
					prev = t.Load(chain.Base+uint64(i)*lineBytes, 8, emitter.None, prev)
				}
			}
			t.Barrier(barSetup)
			// Dirtying pass (before the timed section): the owner-to-be
			// writes every line, leaving it Modified in its cache (and
			// invalidating the requester's warm lines).
			if t.ID == dirtier {
				var prev emitter.Val
				for i := 0; i < chaseLines; i++ {
					t.Store(chain.Base+uint64(i)*lineBytes, 8, prev, emitter.None)
					prev = t.IntALU(emitter.None, emitter.None)
				}
			}
			t.Barrier(emitter.BarrierStart)
			if t.ID == 0 {
				// The timed chase: each load's address depends on the
				// previous load's value (p = *p). Page-head lines are
				// skipped in the clean cases (they may sit warm in the
				// requester's cache).
				var p emitter.Val
				for i := 0; i < chaseLines; i++ {
					if dirtier < 0 && i%linesPerPage == 0 {
						continue
					}
					p = t.Load(chain.Base+uint64(i)*lineBytes, 8, emitter.None, p)
				}
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}

// LoadLatencyNS extracts the per-load latency in nanoseconds from a
// DependentLoads run for protocol case c.
func LoadLatencyNS(c proto.Case, res machine.Result) float64 {
	return res.ExecNS() / float64(ChaseCount(c))
}

// TLBTimer returns the TLB-miss timer: a warmed working set of one line
// per page, chased first over more pages than the TLB holds (a miss per
// load) and then over a TLB-resident subset (a hit per load). The
// difference in per-load time is the handler cost. The internal barrier
// barMid separates the two timed sections.
func TLBTimer() emitter.Program {
	return emitter.Program{
		Name:    "snbench-tlb",
		Variant: fmt.Sprintf("pages=%d fit=%d", tlbPages, tlbFitPages),
		Threads: 1,
		Setup: func(as *emitter.AddressSpace) any {
			return as.AllocPageAligned("pages", tlbPages*4096,
				emitter.Placement{Kind: emitter.PlaceOnNode, Node: 0})
		},
		Body: func(t *emitter.Thread, shared any) {
			r := shared.(emitter.Region)
			// One line per page, with a per-page line offset chosen so
			// the probe lines spread across cache sets instead of
			// colliding at a single page-stride set.
			addr := func(p int) uint64 {
				return r.Base + uint64(p)*4096 + uint64(p*5%128)*32
			}
			// Warm the lines into the caches (two passes).
			for pass := 0; pass < 2; pass++ {
				var prev emitter.Val
				for p := 0; p < tlbPages; p++ {
					prev = t.Load(addr(p), 8, emitter.None, prev)
				}
			}
			t.Barrier(emitter.BarrierStart)
			// Section 1: cycle over all pages (TLB thrash), ending
			// with one pass over the fit subset so section 2 starts
			// with its pages TLB-resident (those fit misses are
			// counted in section 1).
			var prev emitter.Val
			for range tlbRounds {
				for p := 0; p < tlbPages; p++ {
					prev = t.Load(addr(p), 8, emitter.None, prev)
				}
			}
			for p := 0; p < tlbFitPages; p++ {
				prev = t.Load(addr(p), 8, emitter.None, prev)
			}
			t.Barrier(BarMid)
			// Section 2: cycle over a TLB-resident subset (hits).
			for range tlbRounds {
				for p := 0; p < tlbFitPages; p++ {
					prev = t.Load(addr(p), 8, emitter.None, prev)
				}
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}

// BarMid is the barrier id separating a two-section microbenchmark's
// timed phases.
const BarMid uint32 = 24

// TLBHandlerCycles extracts the measured refill cost in CPU cycles from
// a TLBTimer run. clockMHz is the simulated core clock.
func TLBHandlerCycles(res machine.Result, clockMHz int) float64 {
	start := firstRelease(res, emitter.BarrierStart)
	mid := firstRelease(res, BarMid)
	end := firstRelease(res, emitter.BarrierEnd)
	if mid <= start || end <= mid {
		return 0
	}
	missLoads := float64(tlbPages*tlbRounds + tlbFitPages)
	hitLoads := float64(tlbFitPages * tlbRounds)
	perMiss := sim.ToNS(mid-start) / missLoads
	perHit := sim.ToNS(end-mid) / hitLoads
	cycleNS := 1e3 / float64(clockMHz)
	return (perMiss - perHit) / cycleNS
}

func firstRelease(res machine.Result, id uint32) sim.Ticks {
	rel := res.BarrierReleases[id]
	if len(rel) == 0 {
		return 0
	}
	return rel[0]
}

// Restart returns the back-to-back independent-load test: loads with no
// dependences striding one line, all missing the L2, whose throughput is
// bounded by the MSHRs, the secondary-cache interface occupancy, and the
// restart delay.
func Restart(lines int) emitter.Program {
	return emitter.Program{
		Name:    "snbench-restart",
		Variant: fmt.Sprintf("lines=%d", lines),
		Threads: 1,
		Setup: func(as *emitter.AddressSpace) any {
			return as.AllocPageAligned("stream", uint64(lines)*lineBytes,
				emitter.Placement{Kind: emitter.PlaceOnNode, Node: 0})
		},
		Body: func(t *emitter.Thread, shared any) {
			r := shared.(emitter.Region)
			// Warm pages so faults and TLB refills land outside the
			// timed section; the stream skips the warmed lines.
			var prev emitter.Val
			for i := 0; i < lines; i += linesPerPage {
				prev = t.Load(r.Base+uint64(i)*lineBytes, 8, emitter.None, prev)
			}
			t.Barrier(emitter.BarrierStart)
			for i := 0; i < lines; i++ {
				if i%linesPerPage == 0 {
					continue
				}
				t.Load(r.Base+uint64(i)*lineBytes, 8, emitter.None, emitter.None)
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}

// ThroughputNSPerLoad extracts mean inter-load time from a Restart run.
func ThroughputNSPerLoad(res machine.Result, lines int) float64 {
	return res.ExecNS() / float64(lines-lines/linesPerPage)
}
