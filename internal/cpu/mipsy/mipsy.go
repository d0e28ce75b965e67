// Package mipsy implements the Mipsy processor model: "a single-issue,
// in-order MIPS processor. Pipeline effects and functional unit
// latencies are not simulated, so the Mipsy processor executes one
// instruction per cycle in the absence of memory stalls. Mipsy has
// blocking reads, but supports both prefetching and a write buffer."
//
// The model is deliberately simple — that is the point of the study.
// Its two documented deficiencies are reproduced as configuration:
//
//   - ModelInstrLatency=false (the default) charges one cycle to every
//     instruction, under-predicting Radix-Sort (integer multiply/divide)
//     and Ocean (floating-point divides). The §3.1.3 experiment enables
//     it to show the 0.71 → ~1.02 correction.
//   - The clock may be run at 225 or 300 MHz against the 150 MHz memory
//     system, the standard trick for approximating ILP with an in-order
//     model. 300 MHz over-drives the memory system and wrecks the FFT
//     speedup trend (Figure 5).
package mipsy

import (
	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// Config parameterizes a Mipsy core.
type Config struct {
	// Clock is the core clock (150, 225, or 300 MHz in the study).
	Clock sim.Clock
	// ModelInstrLatency charges each instruction its R10000
	// functional-unit latency (off in classic Mipsy).
	ModelInstrLatency bool
	// Quantum bounds instructions executed per Run call (causality
	// skew bound for the event loop); it must be positive.
	Quantum int
}

// CPU is one Mipsy core.
type CPU struct {
	cfg    Config
	cur    cpu.Cursor
	port   cpu.Port
	lat    isa.LatencyTable
	instrs uint64
	useLat bool

	// pendT is the start time of the instruction whose access is in
	// flight: Deliver completes it, whether the port answered at once
	// or deferred it.
	pendT sim.Ticks
}

// New binds a Mipsy core to an instruction stream and a memory port.
func New(cfg Config, rd cpu.Stream, port cpu.Port) *CPU {
	return &CPU{cfg: cfg, cur: cpu.NewCursor(rd), port: port, lat: isa.R10000Latencies(), useLat: cfg.ModelInstrLatency}
}

// Instructions returns the instructions the core has executed.
func (c *CPU) Instructions() uint64 { return c.instrs }

// Deliver implements cpu.CPU, and is also how Run finishes an access
// the port answers at once: the core blocks until the data is there,
// at least one cycle, and resumes on a clock edge.
func (c *CPU) Deliver(mi cpu.MemInfo) sim.Ticks {
	return c.cfg.Clock.Align(max(c.pendT+c.cfg.Clock.Period, mi.Done))
}

// Run executes instructions in order starting at t.
func (c *CPU) Run(t sim.Ticks) cpu.Outcome {
	period := c.cfg.Clock.Period
	for n := 0; n < c.cfg.Quantum; n++ {
		in := c.cur.Next()
		if in == nil {
			return cpu.Outcome{Kind: cpu.Finished, Time: t}
		}
		c.instrs++
		switch in.Op {
		case isa.Lock, isa.Unlock, isa.Barrier:
			// One cycle to execute, then hand to the machine.
			t += period
			return cpu.Outcome{Kind: cpu.SyncOp, Time: t, Op: in.Op, Aux: in.Aux}

		case isa.Load:
			mi := c.port.Load(t, in.Addr, in.Size)
			if c.pendT = t; mi.Pending() {
				return cpu.Outcome{Kind: cpu.Blocked, Time: t}
			}
			t = c.Deliver(mi)

		case isa.Store:
			mi := c.port.Store(t, in.Addr, in.Size)
			if c.pendT = t; mi.Pending() {
				return cpu.Outcome{Kind: cpu.Blocked, Time: t}
			}
			t = c.Deliver(mi)
			if mi.WentToMemory() {
				// Yield so shared-resource reservations stay in
				// global time order.
				return cpu.Outcome{Kind: cpu.Yield, Time: t}
			}

		case isa.Prefetch:
			c.port.Prefetch(t, in.Addr)
			t += period

		case isa.CacheOp:
			mi := c.port.CacheOp(t, in.Addr, in.Aux)
			if c.pendT = t; mi.Pending() {
				return cpu.Outcome{Kind: cpu.Blocked, Time: t}
			}
			t = c.Deliver(mi)

		case isa.Syscall:
			t += period * sim.Ticks(1+c.port.SyscallCost(in.Aux))

		default:
			cycles := sim.Ticks(1)
			if c.useLat {
				cycles = sim.Ticks(c.lat[in.Op].Cycles)
			}
			t += period * cycles
		}
	}
	return cpu.Outcome{Kind: cpu.Yield, Time: t}
}
