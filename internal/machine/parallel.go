package machine

import (
	"cmp"
	"fmt"
	"slices"

	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// This file is the windowed conservative engine: one event-loop
// algorithm for every shard count, S=1 included, so an S-shard run is
// bit-identical to a serial run by construction rather than by a
// separate proof per subsystem.
//
// The machine's nodes are partitioned into S shards, each owning a
// private event queue. Time advances in fixed windows [T, T+W), W
// derived from the interconnect's conservative lookahead (the 45-tick
// per-hop link latency — no message can affect another node sooner)
// times a fixed multiplier. Within a window the engine runs rounds:
//
//  1. Parallel phase: every shard drains its queue up to T+W. Node
//     work in this phase is strictly node-local — translation of
//     mapped pages, L1/L2 tag checks, write-buffer slots. Anything
//     that needs shared state (memory-system transactions, page
//     faults, sync operations) is pushed as a pendingOp and the node
//     either suspends (cpu.Blocked) or proceeds fire-and-forget.
//  2. Barrier: the per-node op lists are concatenated in node order,
//     sorted by (t, node, seq), and executed serially through the
//     same synchronous memory-system code a serial simulator runs.
//     Blocking ops hand their completed MemInfo back to the suspended
//     core (cpu.Blocking.Deliver) and reschedule it.
//  3. Repeat until a parallel phase produces no ops, then advance T to
//     the window containing the earliest pending event.
//
// The round structure — which events run in which parallel phase, and
// the sorted op order — depends only on the event timestamps and the
// (t, node, seq) keys, never on the shard count or on goroutine
// scheduling, so results are identical at every S. Shards only decide
// which cores step concurrently inside a phase, where all work is
// node-local by construction.

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

// shard is one partition of the machine's nodes with its private event
// queue. Only the shard's worker (or the engine goroutine, for S=1 or
// during serial phases) touches it.
type shard struct {
	id       int
	queue    *sim.Queue
	fired    int
	finished int

	work chan sim.Ticks // parallel-phase window boundaries
	done chan any       // nil or recovered panic
}

// runTo drains the shard's queue up to (excluding) limit.
func (sh *shard) runTo(limit sim.Ticks) {
	q := sh.queue
	for {
		at, ok := q.PeekAt()
		if !ok || at >= limit {
			return
		}
		n := q.StepBatch()
		sh.fired += n
		if sh.fired > eventCap {
			return
		}
	}
}

// shardOf maps node i to its shard index: contiguous blocks, balanced
// to within one node, correct for any S ≤ P (including non-powers of
// two).
func shardOf(i, procs, shards int) int { return i * shards / procs }

// drive runs the windowed engine to quiescence.
func (m *Machine) drive() {
	for _, n := range m.nodes {
		m.resume(n, 0)
	}
	par := len(m.shards) > 1
	if par {
		for _, sh := range m.shards {
			sh.work = make(chan sim.Ticks)
			sh.done = make(chan any, 1)
			go sh.worker(m)
		}
		defer func() {
			for _, sh := range m.shards {
				close(sh.work)
			}
		}()
	}

	var merged []pendingOp
	W := m.window
	T := sim.Ticks(0)
	for {
		for {
			// Parallel phase: drain every shard up to the window edge.
			if par {
				for _, sh := range m.shards {
					sh.work <- T + W
				}
				for _, sh := range m.shards {
					if p := <-sh.done; p != nil {
						panic(p)
					}
				}
			} else {
				m.shards[0].runTo(T + W)
			}
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
		if m.runErr != nil || m.firedTotal() >= eventCap {
			return
		}
		// Advance to the window holding the earliest pending event. A
		// quiesced round left nothing below T+W, so next ≥ T+W and the
		// division skips empty windows in one step.
		next := sim.Forever
		for _, sh := range m.shards {
			if at, ok := sh.queue.PeekAt(); ok && at < next {
				next = at
			}
		}
		if next == sim.Forever {
			return
		}
		T = (next / W) * W
	}
}

// worker is a shard's goroutine: one parallel phase per work item.
// Panics (stream failures surface as panics in core code) are carried
// back to the engine goroutine and re-raised there.
func (sh *shard) worker(m *Machine) {
	for limit := range sh.work {
		func() {
			defer func() {
				sh.done <- recover()
			}()
			sh.runTo(limit)
		}()
	}
}

// firedTotal sums dispatched events across shards.
func (m *Machine) firedTotal() int {
	n := 0
	for _, sh := range m.shards {
		n += sh.fired
	}
	return n
}

// pendingEvents sums queued events across shards (deadlock reporting).
func (m *Machine) pendingEvents() int {
	n := 0
	for _, sh := range m.shards {
		n += sh.queue.Len()
	}
	return n
}

// finishedTotal sums finished processors across shards.
func (m *Machine) finishedTotal() int {
	n := 0
	for _, sh := range m.shards {
		n += sh.finished
	}
	return n
}

// execOp executes one deferred operation through the synchronous
// memory-system code. It runs on the engine goroutine with every shard
// parked at the barrier, so it may touch any state — including other
// nodes' caches via the coherence protocol's peer invalidations.
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
// the node's shard already dispatched this window — that is the reason
// shard queues run relaxed.
func (m *Machine) deliver(n *node, mi cpu.MemInfo) {
	m.resume(n, n.core.(cpu.Blocking).Deliver(mi))
}
