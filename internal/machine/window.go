package machine

import (
	"cmp"
	"fmt"
	"slices"

	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// This file is the windowed conservative engine: the one serial
// semantics every run executes.
//
// Time advances in fixed windows [T, T+W), W derived from the
// interconnect's conservative lookahead (the 45-tick per-hop link
// latency — no message can affect another node sooner) times a fixed
// multiplier. Within a window the engine runs rounds:
//
//  1. Node phase: the event queue drains up to T+W. Node work in this
//     phase is strictly node-local — translation of mapped pages,
//     L1/L2 tag checks, write-buffer slots. Anything that needs shared
//     state (memory-system transactions, page faults, sync operations)
//     is pushed as a pendingOp and the node either suspends
//     (cpu.Blocked) or proceeds fire-and-forget.
//  2. Barrier: the per-node op lists are concatenated in node order,
//     sorted by (t, node, seq), and executed serially through the
//     synchronous memory-system code. Blocking ops hand their completed
//     MemInfo back to the suspended core (cpu.Blocking.Deliver) and
//     reschedule it.
//  3. Repeat until a node phase produces no ops, then advance T to the
//     window containing the earliest pending event.
//
// The round structure — which events run in which node phase, and the
// sorted op order — depends only on the event timestamps and the
// (t, node, seq) keys.

// windowLookaheadMult scales the interconnect lookahead into the engine
// window width W. Correctness and determinism do not depend on it (the
// barrier protocol serializes all shared-state work at any W); it is a
// staleness-versus-barrier-overhead knob: larger windows batch more
// node-local work per barrier but let node-local state (caches seen by
// inline hits) go longer between cross-node effects. It is a compile-
// time constant, not configuration, so every run at a given config uses
// the same quantization.
const windowLookaheadMult = 64

// eventCap bounds total dispatched events per run (runaway guard, far
// above any real run).
const eventCap = 2_000_000_000

// opKind enumerates the deferred-operation types the barrier executes.
type opKind uint8

const (
	// opSync is a LOCK/UNLOCK/BARRIER instruction (acc.op, acc.aux).
	opSync opKind = iota
	// opAccess re-runs a whole access whose page needs a fault.
	opAccess
	// opMiss finishes an L2 miss the prefix detected at pa.
	opMiss
	// opWriteback issues a deferred dirty-line writeback (fire-and-forget).
	opWriteback
)

// pendingOp is one deferred shared-state operation. The (t, node, seq)
// triple is its global execution key: t is the operation's simulated
// time (kept monotone per node by memPort.push), node breaks ties, seq
// preserves each node's issue order.
type pendingOp struct {
	t    sim.Ticks
	node int
	seq  uint64
	pa   uint64
	acc  access
	kind opKind
	tlb  cpu.MemFlags // FlagTLBMiss when the prefix's translation refilled
	// placeholder marks a store miss the processor is not waiting on:
	// finishing it patches the write-buffer slot the prefix reserved.
	placeholder bool
}

// compareOps orders deferred operations by their (t, node, seq) key. The
// key is unique, so any sort yields the one order.
func compareOps(a, b pendingOp) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	if c := cmp.Compare(a.node, b.node); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// runTo drains the event queue up to (excluding) limit.
func (m *Machine) runTo(limit sim.Ticks) {
	q := m.queue
	for {
		at, ok := q.PeekAt()
		if !ok || at >= limit {
			return
		}
		m.fired += q.StepBatch()
		if m.fired > eventCap {
			return
		}
	}
}

// drive runs the windowed engine to quiescence.
func (m *Machine) drive() {
	for _, n := range m.nodes {
		m.resume(n, 0)
	}
	var merged []pendingOp
	W := m.window
	T := sim.Ticks(0)
	for {
		for {
			m.runTo(T + W)
			// Barrier: merge per-node op lists in node order and execute
			// in global (t, node, seq) order.
			merged = merged[:0]
			for _, n := range m.nodes {
				merged = append(merged, n.port.ops...)
				n.port.ops = n.port.ops[:0]
			}
			if len(merged) == 0 {
				break
			}
			if !slices.IsSortedFunc(merged, compareOps) {
				slices.SortFunc(merged, compareOps)
			}
			for i := range merged {
				m.execOp(&merged[i])
			}
			if m.runErr != nil {
				return
			}
		}
		if m.runErr != nil || m.fired >= eventCap {
			return
		}
		// Advance to the window holding the earliest pending event. A
		// quiesced round left nothing below T+W, so next ≥ T+W and the
		// division skips empty windows in one step.
		next, ok := m.queue.PeekAt()
		if !ok {
			return
		}
		T = (next / W) * W
	}
}

// execOp executes one deferred operation through the synchronous
// memory-system code. It runs at the barrier, so it may touch any
// state — including other nodes' caches via the coherence protocol's
// peer invalidations.
func (m *Machine) execOp(op *pendingOp) {
	n := m.nodes[op.node]
	var mi cpu.MemInfo
	switch op.kind {
	case opSync:
		m.handleSync(n, op.t, op.acc.op, op.acc.aux)
		return
	case opWriteback:
		m.mem.Writeback(op.t, op.node, op.pa)
		return
	case opAccess:
		if op.acc.op == isa.Prefetch {
			n.port.prefetch(op.t, op.acc, false)
		} else {
			mi = n.port.touch(op.t, op.acc, false)
		}
	case opMiss:
		mi = n.port.finish(op.t, op.acc, op.pa, op.tlb, op.placeholder)
	default:
		m.runErr = fmt.Errorf("machine %q: unknown pending op kind %d", m.cfg.Name, op.kind)
		return
	}
	// A core is suspended on every timed access except a prefetch and a
	// store behind a placeholder; warm touches are all fire-and-forget.
	if !op.acc.warm && op.acc.op != isa.Prefetch && !op.placeholder {
		m.deliver(n, mi)
	}
}

// deliver completes a suspended core's deferred access and reschedules
// it at the resume time the core reports. The resume may precede events
// the queue already dispatched this window, which sim.Queue accepts:
// dispatch order within a round stays (at, prio, seq).
func (m *Machine) deliver(n *node, mi cpu.MemInfo) {
	m.resume(n, n.core.(cpu.Blocking).Deliver(mi))
}
