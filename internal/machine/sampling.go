package machine

import (
	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// SamplingStats is the window accounting of a sampled run, aggregated
// across nodes into Result.Sampling. The zero value means the run was
// not sampled.
type SamplingStats struct {
	// Windows counts completed-or-started detailed windows.
	Windows uint64
	// DetailedInstrs and FunctionalInstrs partition the committed
	// instruction count by fidelity; WarmupInstrs is the portion of
	// DetailedInstrs inside the warmup prefix of a window.
	DetailedInstrs   uint64
	WarmupInstrs     uint64
	FunctionalInstrs uint64
	// WarmTouches counts memory operations that warmed cache/TLB/
	// directory state during fast-forward (zero under cold warmup).
	WarmTouches uint64
}

// add folds one core's counters into the aggregate.
func (a *SamplingStats) add(b SamplingStats) {
	a.Windows += b.Windows
	a.DetailedInstrs += b.DetailedInstrs
	a.WarmupInstrs += b.WarmupInstrs
	a.FunctionalInstrs += b.FunctionalInstrs
	a.WarmTouches += b.WarmTouches
}

// funcSlice bounds instructions consumed per functional Run call. The
// functional model makes no shared-resource reservations beyond warm
// state touches, so it can take much larger slices than a detailed
// quantum without distorting global time ordering; sync instructions
// still hand control to the machine immediately.
const funcSlice = 4096

// sampledCPU is a sampling schedule made executable on trace replay:
// it alternates a node between its replay core, which closes each
// detailed window at its instruction budget, and a functional
// fast-forward that advances the same action cursor at a flat one
// cycle per instruction. Sync instructions always surface to the
// machine — barrier and lock semantics are machine-level and cannot be
// skipped — and under the warm policy every fast-forwarded memory
// operation still performs its translation, cache, and directory state
// transitions through the port's warm path.
type sampledCPU struct {
	sched SamplingConfig
	clock sim.Clock
	core  *replayCPU
	port  cpu.Port
	warm  *memPort // non-nil when the schedule warms state

	started  bool
	detailed bool
	winStart uint64 // core.instrs when the current window opened
	segLeft  uint64 // functional instructions left in current segment
	fnInstr  uint64 // instructions committed functionally
	meta     SamplingStats
}

func newSampledCPU(sched SamplingConfig, clock sim.Clock, core *replayCPU, port cpu.Port) *sampledCPU {
	c := &sampledCPU{sched: sched, clock: clock, core: core, port: port}
	if !sched.ColdState {
		c.warm, _ = port.(*memPort)
	}
	return c
}

// Instructions counts the replay core's instructions and those the
// functional driver committed.
func (c *sampledCPU) Instructions() uint64 { return c.core.Instructions() + c.fnInstr }

// sampling returns the core's window accounting (collect aggregates it
// into Result.Sampling).
func (c *sampledCPU) sampling() SamplingStats { return c.meta }

// Deliver forwards to the replay core: Blocked outcomes only originate
// inside detailed windows (the functional path's shared-state work is
// all fire-and-forget).
func (c *sampledCPU) Deliver(mi cpu.MemInfo) sim.Ticks { return c.core.Deliver(mi) }

// openWindow gives the replay core the next detailed window's budget.
// A schedule with no functional gap (Window == Period) opens one
// unbounded window instead: a finite budget would close at
// instruction-count boundaries the unsampled core never yields at,
// perturbing the cross-node event interleaving, so the degenerate
// all-detailed schedule would not be bit-identical to an unsampled run.
func (c *sampledCPU) openWindow() {
	c.detailed = true
	c.winStart = c.core.instrs
	c.core.stop = c.core.instrs + c.sched.Window
	if c.sched.Window == c.sched.Period {
		c.core.stop = ^uint64(0)
	}
	c.meta.Windows++
}

// closeWindow accounts the just-finished (possibly truncated) window
// and returns to functional execution.
func (c *sampledCPU) closeWindow() {
	consumed := c.core.instrs - c.winStart
	c.meta.DetailedInstrs += consumed
	c.meta.WarmupInstrs += min(consumed, c.sched.Warmup)
	c.detailed = false
	c.segLeft = c.sched.Period - c.sched.Window
}

// Run advances the node from t: detailed segments delegate to the
// replay core, functional segments advance its cursor directly. The
// returned outcome obeys the same contract as any core's.
func (c *sampledCPU) Run(t sim.Ticks) cpu.Outcome {
	if !c.started {
		c.started = true
		if c.sched.Phase > 0 {
			c.detailed, c.segLeft = false, c.sched.Phase
		} else {
			c.openWindow()
		}
	}
	for {
		if c.detailed {
			out := c.core.Run(t)
			if out.Kind != cpu.Finished {
				return out
			}
			c.closeWindow()
			if c.core.eof {
				// The actions really ran out.
				return out
			}
			// The budget ran out: the window is over. Continue
			// fast-forwarding from the time the window reached.
			t = out.Time
			if c.segLeft == 0 {
				// Back-to-back windows (Window == Period).
				c.openWindow()
			}
			continue
		}
		out, more := c.runFunctional(t)
		if !more {
			return out
		}
		// A window boundary was reached mid-slice; switch and continue.
		t = out.Time
		c.openWindow()
	}
}

// runFunctional fast-forwards up to one functional slice from t. It
// returns (outcome, false) when the machine must take over — a yield,
// a sync instruction, or the end of the stream — and (resume point,
// true) when the current functional segment is exhausted and a
// detailed window should open at outcome.Time.
func (c *sampledCPU) runFunctional(t sim.Ticks) (cpu.Outcome, bool) {
	period := c.clock.Period
	// Segment position and the committed count stay in locals for the
	// hot loop; commit folds them back before every return.
	left := c.segLeft
	var done uint64
	commit := func() {
		c.segLeft = left
		c.fnInstr += done
		c.meta.FunctionalInstrs += done
	}
	for n := 0; n < funcSlice; n++ {
		if left == 0 {
			commit()
			return cpu.Outcome{Kind: cpu.Yield, Time: t}, true
		}
		// Take the pending compute run and its following action in one
		// call. Every instruction of the run charges its own slot of the
		// slice: the slice bound fixes the yield cadence, and yields
		// order cross-node warm-state transitions.
		k, a, ok := c.core.NextRun(min(left, uint64(funcSlice-n)))
		left -= k
		done += k
		t += period * sim.Ticks(k)
		if !ok {
			commit()
			return cpu.Outcome{Kind: cpu.Finished, Time: t}, false
		}
		if a == nil {
			// The run hit the slice or segment cap; the loop's n++
			// accounts one of the k consumed slots.
			n += int(k) - 1
			continue
		}
		n += int(k)
		left--
		done++
		t += period
		switch {
		case a.op().IsMem():
			if c.warm != nil {
				c.warm.warmTouch(t, a.op(), a.addr)
				c.meta.WarmTouches++
			}
		case a.op().IsSync():
			commit()
			return cpu.Outcome{Kind: cpu.SyncOp, Time: t, Op: a.op(), Aux: a.arg}, false
		case a.op() == isa.Syscall:
			// Keep the OS syscall accounting live; the cost itself is
			// timing and is elided.
			c.port.SyscallCost(a.arg)
		}
	}
	commit()
	return cpu.Outcome{Kind: cpu.Yield, Time: t}, false
}
