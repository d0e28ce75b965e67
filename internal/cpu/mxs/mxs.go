// Package mxs implements the MXS processor model: a generic four-issue
// out-of-order superscalar "configured to be as close to an R10000 as
// possible" — same functional-unit mix and latencies, same branch
// prediction strategy, and (added for this study, as in the paper)
// resource constraints on the functional units.
//
// Because MXS is generic, it does not model R10000 implementation
// corner cases. The ones the paper identified are available as fidelity
// flags, all off by default (matching untuned MXS) and all on in the
// hardware reference model:
//
//   - ModelAddressInterlocks: address interlocks in the R10000 pipeline
//     "can in some cases cause a 20%–30% decrease in performance"
//     (Ofelt); without them MXS runs 20–30% faster than hardware.
//   - BugFastIssue: the historical MXS bug where "an instruction would
//     move through the pipeline too quickly if all of its resources
//     were available when it issued" (found by the Rivet visualizer).
//   - BugCacheOpStall: the historical bug where a CACHE instruction
//     that invalidated a dirty line never signaled completion and the
//     processor stalled ~one million cycles until a timer interrupt
//     retried it.
//
// The model is a constraint-propagation window model: per instruction
// it computes fetch, issue, completion, and retire times under fetch
// bandwidth, window occupancy, data dependences, functional-unit
// structural hazards, branch mispredictions, and pipeline-flushing
// coprocessor-0 instructions. This is the standard way to approximate
// an out-of-order core without per-cycle scheduling, and it preserves
// the property the study cares about: overlapping of memory latency up
// to the MSHR limit.
package mxs

import (
	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// Fidelity collects the R10000 corner-case switches and historical
// bugs.
type Fidelity struct {
	// ModelAddressInterlocks charges InterlockCycles to memory
	// operations whose address producer is within InterlockMaxDist
	// instructions (and to tightly dependent FP pairs).
	ModelAddressInterlocks bool
	InterlockCycles        uint32
	InterlockMaxDist       uint32
	// BugFastIssue re-enables the historical fast-issue bug.
	BugFastIssue bool
	// BugCacheOpStall re-enables the historical CACHE-op stall bug;
	// CacheOpStallCycles is the stall length (≈1M cycles).
	BugCacheOpStall    bool
	CacheOpStallCycles uint32
}

// DefaultInterlocks returns the interlock parameters used by the
// hardware reference model.
func DefaultInterlocks() (cycles, maxDist uint32) { return 2, 3 }

// Config parameterizes an MXS core.
type Config struct {
	// Clock is the core clock (150 MHz in the study: "because MXS is
	// a multiple-issue simulator capable of exploiting ILP, its
	// results are reported only for the hardware clock speed").
	Clock sim.Clock
	// Window is the reorder-buffer size (R10000: 32).
	Window int
	// FetchWidth and RetireWidth are per-cycle bandwidths (4 and 4).
	FetchWidth  int
	RetireWidth int
	// BranchAccuracy is the predictor hit rate (R10000 2-bit ~0.90).
	BranchAccuracy float64
	// MispredictPenalty is the refetch penalty in cycles.
	MispredictPenalty uint32
	// FlushPenalty is the pipeline-drain penalty of coprocessor-0
	// instructions, in cycles.
	FlushPenalty uint32
	// Latencies is the per-op latency table (R10000 values).
	Latencies isa.LatencyTable
	// Fidelity selects corner-case modeling.
	Fidelity Fidelity
	// Quantum bounds instructions per Run call; 0 means 200.
	Quantum int
	// Seed perturbs the branch-outcome PRNG (deterministic per core).
	Seed uint64
}

// DefaultConfig returns the untuned MXS configuration of the study.
func DefaultConfig(clock sim.Clock) Config {
	return Config{
		Clock:             clock,
		Window:            32,
		FetchWidth:        4,
		RetireWidth:       4,
		BranchAccuracy:    0.90,
		MispredictPenalty: 5,
		FlushPenalty:      10,
		Latencies:         isa.R10000Latencies(),
		Quantum:           200,
	}
}

const histSize = 4096 // completion-time history ring (power of two)

// CPU is one MXS core.
type CPU struct {
	cfg  Config
	cur  cpu.Cursor
	port cpu.Port

	n          uint64 // absolute instruction index
	hist       [histSize]sim.Ticks
	retireRing []sim.Ticks
	prevRetire sim.Ticks
	curFetch   sim.Ticks
	fetchedInC int
	unitFree   [isa.NumUnits]sim.Ticks
	rng        uint64
	brThresh   uint64

	retireSpacing sim.Ticks
	instrs        uint64 // n and the sync ops

	// Suspension context for a port-deferred access (cpu.Blocking).
	pendLat       isa.Latency
	pendIssueT    sim.Ticks
	pendDepsReady bool
	pendCacheOp   bool
}

// New binds an MXS core to an instruction stream and memory port.
func New(cfg Config, rd cpu.Stream, port cpu.Port) *CPU {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 200
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.FetchWidth <= 0 {
		cfg.FetchWidth = 4
	}
	if cfg.RetireWidth <= 0 {
		cfg.RetireWidth = 4
	}
	var zero isa.LatencyTable
	if cfg.Latencies == zero {
		cfg.Latencies = isa.R10000Latencies()
	}
	spacing := (cfg.Clock.Period + sim.Ticks(cfg.RetireWidth) - 1) / sim.Ticks(cfg.RetireWidth)
	if spacing == 0 {
		spacing = 1
	}
	c := &CPU{
		cfg:           cfg,
		cur:           cpu.NewCursor(rd),
		port:          port,
		retireRing:    make([]sim.Ticks, cfg.Window),
		rng:           cfg.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
		retireSpacing: spacing,
	}
	switch {
	case cfg.BranchAccuracy >= 1:
		c.brThresh = ^uint64(0)
	case cfg.BranchAccuracy <= 0:
		c.brThresh = 0
	default:
		c.brThresh = uint64(cfg.BranchAccuracy*float64(1<<63)) << 1
	}
	return c
}

// Instructions returns the instructions the core has executed.
func (c *CPU) Instructions() uint64 { return c.instrs }

func (c *CPU) rand() uint64 {
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545F4914F6CDD1D
}

// depReady returns the completion time of the producer dist instructions
// back, or 0 when unknown/out of range.
func (c *CPU) depReady(dist uint32) sim.Ticks {
	if dist == 0 || uint64(dist) > c.n || dist >= histSize {
		return 0
	}
	return c.hist[(c.n-uint64(dist))%histSize]
}

// completeInstr finishes one instruction after its completion time is
// known: the historical fast-issue bug ("an instruction would move
// through the pipeline too quickly if all of its resources were
// available when it issued"), pipeline-flush redirects, the TLB-refill
// squash, the completion history, and in-order retire with bandwidth
// RetireWidth. It is the shared tail of the inline path and Deliver.
func (c *CPU) completeInstr(lat isa.Latency, issueT, completeT sim.Ticks, depsReady, tlbFlush bool) {
	period := c.cfg.Clock.Period
	if c.cfg.Fidelity.BugFastIssue && depsReady && completeT > issueT+period {
		completeT -= period
	}

	if lat.FlushesPipe {
		resume := completeT + period*sim.Ticks(c.cfg.FlushPenalty)
		if resume > c.curFetch {
			c.curFetch = c.cfg.Clock.Align(resume)
			c.fetchedInC = 0
		}
	}
	if tlbFlush {
		// A TLB refill is an exception: the pipeline is squashed
		// and no later instruction overlaps the handler. The
		// handler cost itself is inside completeT (charged by the
		// port); redirect fetch behind it.
		if completeT > c.curFetch {
			c.curFetch = c.cfg.Clock.Align(completeT)
			c.fetchedInC = 0
		}
	}

	c.hist[c.n%histSize] = completeT

	// In-order retire with bandwidth RetireWidth.
	rT := completeT
	if m := c.prevRetire + c.retireSpacing; m > rT {
		rT = m
	}
	c.retireRing[c.n%uint64(c.cfg.Window)] = rT
	c.prevRetire = rT
	c.n++
}

// Deliver implements cpu.Blocking: the port deferred the suspended
// memory access to a barrier phase and mi is its completed result.
// The core finishes the instruction exactly as the inline path would
// have and returns the resume time the inline memYield return uses —
// at least the transaction's issue time, so the next shared-resource
// reservation is made in global time order.
func (c *CPU) Deliver(mi cpu.MemInfo) sim.Ticks {
	period := c.cfg.Clock.Period
	completeT := mi.Done
	if c.pendCacheOp {
		// Mirror the inline CACHE path: no latency floor, no TLB
		// squash, but the historical dirty-line stall bug applies.
		if c.cfg.Fidelity.BugCacheOpStall && mi.DirtyCacheOp() {
			stall := c.cfg.Fidelity.CacheOpStallCycles
			if stall == 0 {
				stall = 1_000_000
			}
			completeT += period * sim.Ticks(stall)
		}
		c.completeInstr(c.pendLat, c.pendIssueT, completeT, c.pendDepsReady, false)
	} else {
		if m := c.pendIssueT + period*sim.Ticks(c.pendLat.Cycles); completeT < m {
			completeT = m
		}
		c.completeInstr(c.pendLat, c.pendIssueT, completeT, c.pendDepsReady, mi.TLBMiss())
	}
	at := c.curFetch
	if mi.IssuedAt > at {
		at = mi.IssuedAt
	}
	return at
}

// Run executes instructions starting at t until the model yields.
func (c *CPU) Run(t sim.Ticks) cpu.Outcome {
	period := c.cfg.Clock.Period
	if at := c.cfg.Clock.Align(t); at > c.curFetch {
		c.curFetch = at
		c.fetchedInC = 0
	}
	if t > c.prevRetire {
		c.prevRetire = t
	}
	for k := 0; k < c.cfg.Quantum; k++ {
		in := c.cur.Next()
		if in == nil {
			return cpu.Outcome{Kind: cpu.Finished, Time: c.prevRetire}
		}
		c.instrs++

		if in.Op.IsSync() {
			// Serializing: drain the window, then hand to the machine.
			drain := c.prevRetire + period
			return cpu.Outcome{Kind: cpu.SyncOp, Time: drain, Instr: *in}
		}

		// Fetch: window occupancy, then bandwidth.
		if c.n >= uint64(c.cfg.Window) {
			if slotFree := c.retireRing[c.n%uint64(c.cfg.Window)]; slotFree > c.curFetch {
				c.curFetch = c.cfg.Clock.Align(slotFree)
				c.fetchedInC = 0
			}
		}
		fetchT := c.curFetch
		c.fetchedInC++
		if c.fetchedInC >= c.cfg.FetchWidth {
			c.curFetch += period
			c.fetchedInC = 0
		}

		lat := c.cfg.Latencies[in.Op]
		readyBase := fetchT + period // decode/rename
		issueT := readyBase
		if r := c.depReady(in.Dep1); r > issueT {
			issueT = r
		}
		if r := c.depReady(in.Dep2); r > issueT {
			issueT = r
		}

		// R10000 address interlocks (hardware fidelity only).
		if c.cfg.Fidelity.ModelAddressInterlocks {
			if in.Op.IsMem() && in.Dep2 > 0 && in.Dep2 <= c.cfg.Fidelity.InterlockMaxDist {
				issueT += period * sim.Ticks(c.cfg.Fidelity.InterlockCycles)
			} else if (in.Op == isa.FPAdd || in.Op == isa.FPMul) && in.Dep1 > 0 && in.Dep1 <= 2 {
				issueT += period
			}
		}

		// Structural hazard on the functional unit.
		depsReady := issueT == readyBase // operands ready at rename
		if u := lat.Unit; u != isa.UnitNone {
			if c.unitFree[u] > issueT {
				issueT = c.unitFree[u]
			}
			occupy := period // pipelined: one issue per cycle
			if u == isa.UnitMulDiv {
				occupy = period * sim.Ticks(lat.Cycles) // unpipelined
			}
			c.unitFree[u] = issueT + occupy
		}

		var completeT sim.Ticks
		var memIssued sim.Ticks
		memYield := false
		tlbFlush := false
		switch in.Op {
		case isa.Load:
			mi := c.port.Load(issueT, in.Addr, in.Size)
			if mi.Pending() {
				c.pendLat, c.pendIssueT, c.pendDepsReady, c.pendCacheOp = lat, issueT, depsReady, false
				return cpu.Outcome{Kind: cpu.Blocked, Time: issueT}
			}
			completeT = mi.Done
			if m := issueT + period*sim.Ticks(lat.Cycles); completeT < m {
				completeT = m
			}
			memYield = mi.WentToMemory()
			memIssued = mi.IssuedAt
			tlbFlush = mi.TLBMiss()
		case isa.Store:
			mi := c.port.Store(issueT, in.Addr, in.Size)
			if mi.Pending() {
				c.pendLat, c.pendIssueT, c.pendDepsReady, c.pendCacheOp = lat, issueT, depsReady, false
				return cpu.Outcome{Kind: cpu.Blocked, Time: issueT}
			}
			completeT = issueT + period*sim.Ticks(lat.Cycles)
			if mi.Done > completeT {
				completeT = mi.Done
			}
			memYield = mi.WentToMemory()
			memIssued = mi.IssuedAt
			tlbFlush = mi.TLBMiss()
		case isa.Prefetch:
			c.port.Prefetch(issueT, in.Addr)
			completeT = issueT + period
		case isa.CacheOp:
			mi := c.port.CacheOp(issueT, in.Addr, in.Aux)
			if mi.Pending() {
				c.pendLat, c.pendIssueT, c.pendDepsReady, c.pendCacheOp = lat, issueT, depsReady, true
				return cpu.Outcome{Kind: cpu.Blocked, Time: issueT}
			}
			completeT = mi.Done
			if c.cfg.Fidelity.BugCacheOpStall && mi.DirtyCacheOp() {
				stall := c.cfg.Fidelity.CacheOpStallCycles
				if stall == 0 {
					stall = 1_000_000
				}
				completeT += period * sim.Ticks(stall)
			}
			memYield = mi.WentToMemory()
		case isa.Syscall:
			completeT = issueT + period*sim.Ticks(1+c.port.SyscallCost(in.Aux))
		case isa.Branch:
			completeT = issueT + period*sim.Ticks(lat.Cycles)
			if c.rand() >= c.brThresh {
				redirect := completeT + period*sim.Ticks(c.cfg.MispredictPenalty)
				if redirect > c.curFetch {
					c.curFetch = c.cfg.Clock.Align(redirect)
					c.fetchedInC = 0
				}
			}
		default:
			completeT = issueT + period*sim.Ticks(lat.Cycles)
		}

		c.completeInstr(lat, issueT, completeT, depsReady, tlbFlush)

		if memYield {
			// Yield to at least the transaction's issue time so the
			// next shared-resource reservation (from this or any other
			// processor) is made in global time order.
			at := c.curFetch
			if memIssued > at {
				at = memIssued
			}
			return cpu.Outcome{Kind: cpu.Yield, Time: at}
		}
	}
	return cpu.Outcome{Kind: cpu.Yield, Time: c.curFetch}
}
