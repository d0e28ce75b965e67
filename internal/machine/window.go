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
// multiplier. drive is one loop over rounds:
//
//  1. Node phase: the event queue drains up to T+W. Node work in this
//     phase is strictly node-local — translation of mapped pages,
//     L1/L2 tag checks, write-buffer slots. Anything that needs shared
//     state (memory-system transactions, page faults, sync operations)
//     is appended to the machine's one op list as a pendingOp and the
//     node either suspends (cpu.Blocked) or proceeds fire-and-forget.
//  2. Barrier: the op list is sorted by (t, node, seq) and executed
//     serially through the synchronous memory-system code. Blocking
//     ops hand their completed MemInfo back to the suspended core
//     (cpu.CPU.Deliver) and reschedule it. Executing an op never defers
//     another — every re-entry is canDefer=false — so the barrier
//     empties the list.
//  3. A round that deferred ops is followed by another at the same T;
//     one that deferred none advances T to the window containing the
//     earliest pending event.
//
// The round structure — which events run in which node phase, and the
// sorted op order — depends only on the event timestamps and the
// (t, node, seq) keys.

// windowLookaheadMult scales the interconnect lookahead into the engine
// window width W. Determinism does not depend on it (the barrier
// protocol serializes all shared-state work at any W); results do:
// larger windows batch more node-local work per barrier but let
// node-local state (caches seen by inline hits) go longer between
// cross-node effects, and TestEngineConverges records how far that
// moves them from the W = 1 tick limit. It is a compile-time constant,
// not configuration, so every run at a given config uses the same
// quantization.
const windowLookaheadMult = 64

// windowOverride, when nonzero, replaces the lookahead-derived W. Only
// tests set it, to run the engine at its brute-force limit.
var windowOverride sim.Ticks

// eventCap bounds total dispatched events per run (runaway guard, far
// above any real run). It is a variable only so tests can lower it.
var eventCap = 2_000_000_000

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

// drive runs the windowed engine to quiescence. Each pass of its one
// loop dispatches one batch of the node phase below T+W, or, once that
// phase has drained, runs the round's barrier, or, when the round
// deferred nothing, advances T.
func (m *Machine) drive() {
	for _, n := range m.nodes {
		m.resume(n, 0)
	}
	q, W, T := m.queue, m.window, sim.Ticks(0)
	for m.runErr == nil {
		next, ok := q.PeekAt()
		switch {
		case ok && next < T+W:
			if m.fired += q.StepBatch(); m.fired > eventCap {
				m.runErr = fmt.Errorf("machine %q: %w: more than %d events dispatched by t=%d ticks",
					m.cfg.Name, ErrEventCap, eventCap, q.Now())
			}
		case len(m.ops) > 0:
			m.barrier()
		case ok:
			// A quiesced round left nothing below T+W, so next ≥ T+W and
			// the division skips empty windows in one step.
			T = (next / W) * W
		default:
			return
		}
	}
}

// barrier executes the round's deferred ops in (t, node, seq) order.
// The key is unique, so the order does not depend on how the nodes'
// pushes interleaved in the list.
func (m *Machine) barrier() {
	if !slices.IsSortedFunc(m.ops, compareOps) {
		slices.SortFunc(m.ops, compareOps)
	}
	for i := range m.ops {
		m.execOp(&m.ops[i])
	}
	m.ops = m.ops[:0]
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
		// The resume may precede events the queue already dispatched
		// this window, which sim.Queue accepts: dispatch order within a
		// round stays (at, prio, seq).
		m.resume(n, n.core.Deliver(mi))
	}
}
