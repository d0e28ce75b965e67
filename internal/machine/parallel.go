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
	// opSync is a LOCK/UNLOCK/BARRIER instruction (instr).
	opSync opKind = iota
	// opLoadMiss finishes a load L2 miss (blocking).
	opLoadMiss
	// opLoadFull re-runs a whole load whose page needs a fault (blocking).
	opLoadFull
	// opStoreMiss finishes a store L2 miss behind a write-buffer
	// placeholder (fire-and-forget; patches the placeholder).
	opStoreMiss
	// opStoreMissBlock finishes a store L2 miss that found the write
	// buffer full of placeholders (blocking).
	opStoreMissBlock
	// opStoreFull re-runs a whole store whose page needs a fault (blocking).
	opStoreFull
	// opCacheFull re-runs a whole CACHE op whose page needs a fault (blocking).
	opCacheFull
	// opPrefetch issues a deferred prefetch read (fire-and-forget).
	opPrefetch
	// opPrefetchFull re-runs a whole prefetch whose page needs a
	// backdoor fault (fire-and-forget; Solo only).
	opPrefetchFull
	// opWriteback issues a deferred dirty-line writeback (fire-and-forget).
	opWriteback
	// opWarmLoad / opWarmStore finish warm-path misses; opWarmFull
	// re-runs a whole warm access needing a fault (all fire-and-forget).
	opWarmLoad
	opWarmStore
	opWarmFull
)

// pendingOp is one deferred shared-state operation. The (t, node, seq)
// triple is its global execution key: t is the operation's simulated
// time (kept monotone per node by memPort.push), node breaks ties, seq
// preserves each node's issue order.
type pendingOp struct {
	t    sim.Ticks
	node int
	seq  uint64
	kind opKind

	va      uint64
	pa      uint64
	size    uint32
	aux     uint32 // CACHE sub-op, or the lock/barrier id of an opSync
	op      isa.Op // the instruction kind, for opSync and opWarmFull
	tlbMiss bool
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
		n.shard.queue.ScheduleFn(0, int32(n.id), m, uint64(n.id))
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
	p := n.port
	switch op.kind {
	case opSync:
		m.handleSync(n, op.t, op.op, op.aux)
	case opLoadMiss:
		m.deliver(n, p.finishLoadMiss(op.t, op.pa, op.tlbMiss))
	case opLoadFull:
		m.deliver(n, p.load(op.t, op.va, op.size, false))
	case opStoreMiss:
		mdone, _ := p.finishStoreMiss(op.t, op.pa)
		p.wb.Patch(mdone)
	case opStoreMissBlock:
		mdone, issuedAt := p.finishStoreMiss(op.t, op.pa)
		proceed := p.wb.Push(op.t, mdone)
		m.deliver(n, cpu.MemInfo{Done: proceed, TLBMiss: op.tlbMiss, WentToMemory: true, IssuedAt: issuedAt})
	case opStoreFull:
		m.deliver(n, p.store(op.t, op.va, op.size, false))
	case opCacheFull:
		m.deliver(n, p.cacheOp(op.t, op.va, op.aux, false))
	case opPrefetch:
		p.finishPrefetch(op.t, op.pa)
	case opPrefetchFull:
		p.prefetch(op.t, op.va, false)
	case opWriteback:
		m.mem.Writeback(op.t, op.node, op.pa)
	case opWarmLoad:
		p.finishWarmLoad(op.t, op.pa)
	case opWarmStore:
		p.finishWarmStore(op.t, op.pa)
	case opWarmFull:
		p.warmAccess(op.t, op.op, op.va, false)
	default:
		m.runErr = fmt.Errorf("machine %q: unknown pending op kind %d", m.cfg.Name, op.kind)
	}
}

// deliver completes a suspended core's deferred access and reschedules
// it at the resume time the core reports. The resume may precede events
// the node's shard already dispatched this window — that is the reason
// shard queues run relaxed.
func (m *Machine) deliver(n *node, mi cpu.MemInfo) {
	t := n.core.(cpu.Blocking).Deliver(mi)
	n.shard.queue.ScheduleFn(t, int32(n.id), m, uint64(n.id))
}
