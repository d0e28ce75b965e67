package machine

import (
	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// Schedule is a node's fidelity plan: which instruction-count segments
// of its stream execute on the detailed core model and which
// fast-forward functionally. The zero value is the all-detailed
// schedule. Segments repeat with cycle Period; the detailed window
// occupies the first Window instructions of each period, offset into
// the stream by Phase functional instructions.
type Schedule struct {
	Phase  uint64
	Period uint64
	Window uint64
	Warmup uint64
	// WarmState selects whether functional segments touch cache, TLB,
	// and directory state (the warm-warmup policy) or nothing at all.
	WarmState bool
}

// Schedule derives the per-node fidelity schedule from the sampling
// configuration (the zero Schedule when sampling is disabled).
func (s SamplingConfig) Schedule() Schedule {
	if !s.Enabled {
		return Schedule{}
	}
	return Schedule{
		Phase:     s.Phase,
		Period:    s.Period,
		Window:    s.Window,
		Warmup:    s.Warmup,
		WarmState: !s.ColdState,
	}
}

// Enabled reports whether the schedule ever switches drivers (a zero
// schedule runs everything detailed).
func (s Schedule) Enabled() bool { return s.Period > 0 }

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

// windowGate meters a stream into a detailed core: Next passes
// instructions through while the window budget lasts and reports
// end-of-stream when the budget is exhausted, which makes the inner
// core yield Finished at exact instruction-count boundaries without
// knowing it is being sampled. eof distinguishes the real end of the
// underlying stream from a closed gate.
type windowGate struct {
	src    cpu.Stream
	budget uint64
	used   uint64 // instructions passed through the current window
	eof    bool
}

func (g *windowGate) Next() (isa.Instr, bool) {
	if g.budget == 0 {
		return isa.Instr{}, false
	}
	in, ok := g.src.Next()
	if !ok {
		g.eof = true
		g.budget = 0
		return isa.Instr{}, false
	}
	g.budget--
	g.used++
	return in, true
}

// funcSlice bounds instructions consumed per functional Run call. The
// functional model makes no shared-resource reservations beyond warm
// state touches, so it can take much larger slices than a detailed
// quantum without distorting global time ordering; sync instructions
// still hand control to the machine immediately.
const funcSlice = 4096

// runSource is an optional stream capability: a stream that keeps
// compute instructions in collapsed run-length form (the replay image)
// can hand the functional driver a whole pending run plus the action
// that follows it in one call, instead of materializing unit-latency
// fillers one Next at a time. Bulk consumption is exact because
// collapsed runs are compute-only by construction — no memory
// operation to warm, no sync to surface, and flat one-cycle timing
// either way — so the fast-forward advances state and time
// identically, in O(runs) instead of O(instructions).
type runSource interface {
	// NextRun consumes up to max instructions: the pending compute run
	// (capped at max) and then, if the cap was not hit, the following
	// action instruction. skip is the run length consumed; hasIn
	// reports whether in holds an action; ok=false means the stream is
	// exhausted (a final trailing run may still return skip > 0 with
	// ok=true first).
	NextRun(max uint64) (skip uint64, in isa.Instr, hasIn, ok bool)
}

// sampledCPU is the Schedule made executable: it alternates a node
// between its detailed core (fed through the window gate) and a
// functional fast-forward driver consuming the same stream directly at
// a flat one cycle per instruction. Sync instructions always surface
// to the machine — barrier and lock semantics are machine-level and
// cannot be skipped — and under the warm policy every fast-forwarded
// memory operation still performs its translation, cache, and
// directory state transitions through the port's warm path.
type sampledCPU struct {
	sched Schedule
	clock sim.Clock
	inner cpu.CPU
	gate  *windowGate
	src   cpu.Stream
	runs  runSource // non-nil when src can bulk-consume compute runs
	port  cpu.Port
	warm  *memPort // non-nil when the schedule warms state

	started  bool
	detailed bool
	segLeft  uint64 // functional instructions left in current segment
	fnInstr  uint64 // instructions committed functionally
	meta     SamplingStats
}

func newSampledCPU(sched Schedule, clock sim.Clock, inner cpu.CPU, gate *windowGate, src cpu.Stream, port cpu.Port) *sampledCPU {
	c := &sampledCPU{sched: sched, clock: clock, inner: inner, gate: gate, src: src, port: port}
	if rs, ok := src.(runSource); ok {
		c.runs = rs
	}
	if sched.WarmState {
		if mp, ok := port.(*memPort); ok {
			c.warm = mp
		}
	}
	return c
}

// Instructions counts the detailed core's instructions and those the
// functional driver committed.
func (c *sampledCPU) Instructions() uint64 { return c.inner.Instructions() + c.fnInstr }

// sampling returns the core's window accounting (collect aggregates it
// into Result.Sampling).
func (c *sampledCPU) sampling() SamplingStats { return c.meta }

// Deliver implements cpu.Blocking by forwarding to the detailed inner
// core: Blocked outcomes only originate inside detailed windows (the
// functional path's shared-state work is all fire-and-forget).
func (c *sampledCPU) Deliver(mi cpu.MemInfo) sim.Ticks {
	return c.inner.(cpu.Blocking).Deliver(mi)
}

// openWindow arms the gate for the next detailed window. A schedule
// with no functional gap (Window == Period) opens one unbounded
// window instead: a finite gate would close at instruction-count
// boundaries the unsampled core never yields at, perturbing the
// cross-node event interleaving, so the degenerate all-detailed
// schedule would not be bit-identical to an unsampled run.
func (c *sampledCPU) openWindow() {
	c.detailed = true
	c.gate.budget = c.sched.Window
	if c.sched.Window == c.sched.Period {
		c.gate.budget = ^uint64(0)
	}
	c.gate.used = 0
	c.meta.Windows++
}

// closeWindow accounts the just-finished (possibly truncated) window
// and returns to functional execution.
func (c *sampledCPU) closeWindow() {
	consumed := c.gate.used
	c.meta.DetailedInstrs += consumed
	if wu := c.sched.Warmup; consumed < wu {
		c.meta.WarmupInstrs += consumed
	} else {
		c.meta.WarmupInstrs += wu
	}
	c.detailed = false
	c.segLeft = c.sched.Period - c.sched.Window
}

// Run advances the node from t: detailed segments delegate to the
// inner core, functional segments consume the stream directly. The
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
			out := c.inner.Run(t)
			if out.Kind != cpu.Finished {
				return out
			}
			if c.gate.eof {
				// The underlying stream really ended.
				c.closeWindow()
				return out
			}
			// The gate closed: the window is over. Continue
			// fast-forwarding from the time the window reached.
			c.closeWindow()
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
	src := c.src
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
		var in isa.Instr
		if c.runs != nil {
			// Bulk-consume the pending compute run and its following
			// action in one call. The run still charges the slice
			// budget: the slice bound is what fixes the yield cadence,
			// and yields order cross-node warm-state transitions, so
			// consuming k slots at once (instead of k Next calls) is
			// the only difference from the expanded path.
			max := left
			if rem := uint64(funcSlice - n); max > rem {
				max = rem
			}
			k, a, hasIn, ok := c.runs.NextRun(max)
			left -= k
			done += k
			t += period * sim.Ticks(k)
			if !ok {
				commit()
				return cpu.Outcome{Kind: cpu.Finished, Time: t}, false
			}
			if !hasIn {
				// The run hit the slice or segment cap; the loop's n++
				// accounts one of the k consumed slots.
				n += int(k) - 1
				continue
			}
			n += int(k)
			in = a
		} else {
			a, ok := src.Next()
			if !ok {
				commit()
				return cpu.Outcome{Kind: cpu.Finished, Time: t}, false
			}
			in = a
		}
		left--
		done++
		t += period
		switch {
		case in.Op.IsMem():
			if c.warm != nil {
				c.warm.warmTouch(t, in.Op, in.Addr)
				c.meta.WarmTouches++
			}
		case in.Op.IsSync():
			commit()
			return cpu.Outcome{Kind: cpu.SyncOp, Time: t, Instr: in}, false
		case in.Op == isa.Syscall:
			// Keep the OS syscall accounting live; the cost itself is
			// timing and is elided.
			c.port.SyscallCost(in.Aux)
		}
	}
	commit()
	return cpu.Outcome{Kind: cpu.Yield, Time: t}, false
}
