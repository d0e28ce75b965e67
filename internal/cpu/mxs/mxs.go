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
	// CacheOpStallCycles is the stall length (0 means 1M cycles).
	BugCacheOpStall    bool
	CacheOpStallCycles uint32
}

// DefaultInterlocks returns the interlock parameters used by the
// hardware reference model.
func DefaultInterlocks() (cycles, maxDist uint32) { return 2, 3 }

// The R10000 pipeline the model is configured as: a 32-entry reorder
// buffer, four-wide fetch and retire, a 5-cycle mispredict refetch
// and a 10-cycle drain for coprocessor-0 instructions. Per-op
// latencies are isa.R10000Latencies.
const (
	window            = 32
	fetchWidth        = 4
	retireWidth       = 4
	mispredictPenalty = 5
	flushPenalty      = 10
)

// brThresh is the branch predictor's hit threshold: a branch mispredicts
// when the core's PRNG draws at or above it, so it predicts a fraction
// 0.90 of branches right (the R10000's 2-bit predictor). The value is
// uint64(0.90*float64(1<<63)) << 1.
const brThresh = 0xe666666666666800

// latencies is the per-op latency table (R10000 values).
var latencies = isa.R10000Latencies()

// Config parameterizes an MXS core.
type Config struct {
	// Clock is the core clock (150 MHz in the study: "because MXS is
	// a multiple-issue simulator capable of exploiting ILP, its
	// results are reported only for the hardware clock speed").
	Clock sim.Clock
	// Fidelity selects corner-case modeling.
	Fidelity Fidelity
	// Quantum bounds instructions per Run call; it must be positive.
	Quantum int
	// Seed perturbs the branch-outcome PRNG (deterministic per core).
	Seed uint64
}

// DefaultConfig returns the untuned MXS configuration of the study.
func DefaultConfig(clock sim.Clock) Config {
	return Config{Clock: clock, Quantum: 200}
}

// CPU is one MXS core.
type CPU struct {
	cfg  Config
	cur  cpu.Cursor
	port cpu.Port

	n          uint64           // absolute instruction index
	ring       [window]ringSlot // the last window instructions, by n mod window
	prevRetire sim.Ticks
	curFetch   sim.Ticks
	fetchedInC int
	unitFree   [isa.NumUnits]sim.Ticks
	rng        uint64

	retireSpacing sim.Ticks
	cacheOpStall  sim.Ticks // the CACHE-op bug's stall on a dirty line; 0 when off
	instrs        uint64    // n and the sync ops

	// Suspension context for a port-deferred access (cpu.CPU.Deliver).
	pendLat       isa.Latency
	pendIssueT    sim.Ticks
	pendDepsReady bool
	pendCacheOp   bool
}

// ringSlot is one instruction's completion and retire times.
type ringSlot struct{ complete, retire sim.Ticks }

// New binds an MXS core to an instruction stream and memory port.
func New(cfg Config, rd cpu.Stream, port cpu.Port) *CPU {
	spacing := (cfg.Clock.Period + retireWidth - 1) / retireWidth
	if spacing == 0 {
		spacing = 1
	}
	c := &CPU{
		cfg:           cfg,
		cur:           cpu.NewCursor(rd),
		port:          port,
		rng:           cfg.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
		retireSpacing: spacing,
	}
	if cfg.Fidelity.BugCacheOpStall {
		stall := cfg.Fidelity.CacheOpStallCycles
		if stall == 0 {
			stall = 1_000_000
		}
		c.cacheOpStall = cfg.Clock.Period * sim.Ticks(stall)
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
// back, or 0 when there is none or it is window or more back. The ring
// need not reach further: retire is in order, and fetch of instruction n
// waited for the retire time of instruction n−window, so a producer
// window or more back completed by fetchT, before readyBase, and could
// never hold issue past it.
func (c *CPU) depReady(dist uint32) sim.Ticks {
	if dist == 0 || uint64(dist) > c.n || dist >= window {
		return 0
	}
	return c.ring[(c.n-uint64(dist))%window].complete
}

// completeInstr finishes one instruction after its completion time is
// known: the historical fast-issue bug ("an instruction would move
// through the pipeline too quickly if all of its resources were
// available when it issued"), pipeline-flush redirects, a TLB refill's
// squash, the completion history, and in-order retire with bandwidth
// retireWidth. It is the shared tail of Run and Deliver.
func (c *CPU) completeInstr(lat isa.Latency, issueT, completeT sim.Ticks, depsReady, squash bool) {
	period := c.cfg.Clock.Period
	if c.cfg.Fidelity.BugFastIssue && depsReady && completeT > issueT+period {
		completeT -= period
	}

	if lat.FlushesPipe {
		resume := completeT + period*flushPenalty
		if resume > c.curFetch {
			c.curFetch = c.cfg.Clock.Align(resume)
			c.fetchedInC = 0
		}
	}
	if squash {
		// A TLB refill is an exception: the pipeline is squashed
		// and no later instruction overlaps the handler. The
		// handler cost itself is inside completeT (charged by the
		// port); redirect fetch behind it.
		if completeT > c.curFetch {
			c.curFetch = c.cfg.Clock.Align(completeT)
			c.fetchedInC = 0
		}
	}

	// In-order retire with bandwidth retireWidth.
	rT := completeT
	if m := c.prevRetire + c.retireSpacing; m > rT {
		rT = m
	}
	c.ring[c.n%window] = ringSlot{completeT, rT}
	c.prevRetire = rT
	c.n++
}

// accessDone returns when a port access answered by mi completes and
// whether it squashes the pipeline, for Run's inline answer and
// Deliver's alike. A load or store takes at least its latency, and a
// TLB refill is an exception that squashes everything behind it. A
// CACHE op has neither: it completes when the port says, plus the
// historical bug's stall when it hit a dirty line.
func (c *CPU) accessDone(mi cpu.MemInfo, lat isa.Latency, issueT sim.Ticks, cacheOp bool) (sim.Ticks, bool) {
	if cacheOp {
		if mi.DirtyCacheOp() {
			return mi.Done + c.cacheOpStall, false
		}
		return mi.Done, false
	}
	return max(mi.Done, issueT+c.cfg.Clock.Period*sim.Ticks(lat.Cycles)), mi.TLBMiss()
}

// Deliver implements cpu.CPU: the port deferred the suspended access
// to a barrier phase and mi is its completed result. The core finishes
// the instruction as Run does an inline answer and resumes where Run
// yields after a memory access: at least the transaction's issue
// time, so the next shared-resource reservation is made in global time
// order.
func (c *CPU) Deliver(mi cpu.MemInfo) sim.Ticks {
	completeT, squash := c.accessDone(mi, c.pendLat, c.pendIssueT, c.pendCacheOp)
	c.completeInstr(c.pendLat, c.pendIssueT, completeT, c.pendDepsReady, squash)
	return max(c.curFetch, mi.IssuedAt)
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
			return cpu.Outcome{Kind: cpu.SyncOp, Time: drain, Op: in.Op, Aux: in.Aux}
		}

		// Fetch: window occupancy (a slot no instruction has retired
		// from yet reads 0), then bandwidth.
		if slotFree := c.ring[c.n%window].retire; slotFree > c.curFetch {
			c.curFetch = c.cfg.Clock.Align(slotFree)
			c.fetchedInC = 0
		}
		fetchT := c.curFetch
		c.fetchedInC++
		if c.fetchedInC >= fetchWidth {
			c.curFetch += period
			c.fetchedInC = 0
		}

		lat := latencies[in.Op]
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
		var mi cpu.MemInfo // the port's answer; zero for any other op
		squash := false
		switch in.Op {
		case isa.Load:
			if mi = c.port.Load(issueT, in.Addr, in.Size); mi.Pending() {
				c.pendLat, c.pendIssueT, c.pendDepsReady, c.pendCacheOp = lat, issueT, depsReady, false
				return cpu.Outcome{Kind: cpu.Blocked, Time: issueT}
			}
			completeT, squash = c.accessDone(mi, lat, issueT, false)
		case isa.Store:
			if mi = c.port.Store(issueT, in.Addr, in.Size); mi.Pending() {
				c.pendLat, c.pendIssueT, c.pendDepsReady, c.pendCacheOp = lat, issueT, depsReady, false
				return cpu.Outcome{Kind: cpu.Blocked, Time: issueT}
			}
			completeT, squash = c.accessDone(mi, lat, issueT, false)
		case isa.Prefetch:
			c.port.Prefetch(issueT, in.Addr)
			completeT = issueT + period
		case isa.CacheOp:
			if mi = c.port.CacheOp(issueT, in.Addr, in.Aux); mi.Pending() {
				c.pendLat, c.pendIssueT, c.pendDepsReady, c.pendCacheOp = lat, issueT, depsReady, true
				return cpu.Outcome{Kind: cpu.Blocked, Time: issueT}
			}
			completeT, squash = c.accessDone(mi, lat, issueT, true)
		case isa.Syscall:
			completeT = issueT + period*sim.Ticks(1+c.port.SyscallCost(in.Aux))
		case isa.Branch:
			completeT = issueT + period*sim.Ticks(lat.Cycles)
			if c.rand() >= brThresh {
				redirect := completeT + period*mispredictPenalty
				if redirect > c.curFetch {
					c.curFetch = c.cfg.Clock.Align(redirect)
					c.fetchedInC = 0
				}
			}
		default:
			completeT = issueT + period*sim.Ticks(lat.Cycles)
		}

		c.completeInstr(lat, issueT, completeT, depsReady, squash)

		if mi.WentToMemory() {
			// Yield to at least the transaction's issue time so the
			// next shared-resource reservation (from this or any other
			// processor) is made in global time order.
			return cpu.Outcome{Kind: cpu.Yield, Time: max(c.curFetch, mi.IssuedAt)}
		}
	}
	return cpu.Outcome{Kind: cpu.Yield, Time: c.curFetch}
}
