package machine

import (
	"flashsim/internal/cache"
	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/osmodel"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
	"flashsim/internal/vm"
)

// memPort is a node's data-access path: TLB/OS translation, L1, L2,
// write buffer, MSHRs, L2 interface, then the shared memory system. It
// implements cpu.Port.
//
// Under the windowed engine every access splits into a node-local
// prefix (translation of mapped pages, L1/L2 tag checks, write-buffer
// slot reservation) that runs inside the parallel phase, and a shared
// tail (memory-system transactions, MSHR bookkeeping against ops that
// executed in between, page faults) that is deferred as a pendingOp and
// executed at the next barrier in global (t, node, seq) order. touch
// (for the non-binding prefetch, prefetch) is that prefix and finish
// that tail, for timed and warm accesses alike; the canDefer=false calls
// let the barrier executor re-enter the same code without re-deferring.
type memPort struct {
	m     *Machine
	node  int
	clock sim.Clock
	l1    *cache.Cache
	l2    *cache.Cache
	wb    *cache.WriteBuffer
	mshr  *cache.MSHRs
	l2if  *cache.L2Interface
	cases [proto.NumCases]uint64 // protocol cases of the lines fetch asked for

	// Deferred-operation sink: ops this node produced during the
	// current parallel phase, drained and merged at the barrier. seq
	// numbers ops per node; lastOpT keeps per-node op times monotone so
	// the global (t, node, seq) sort preserves each node's issue order.
	ops     []pendingOp
	opSeq   uint64
	lastOpT sim.Ticks
}

// access is one request to the port — the op, its address, a CACHE
// sub-op in aux, and whether it is a functional warm touch — and the
// payload of a deferred op, so the barrier re-runs or finishes exactly
// what the prefix saw. An opSync carries its instruction and lock or
// barrier id in op and aux.
type access struct {
	va   uint64
	aux  uint32
	op   isa.Op
	warm bool
}

// push defers op to the barrier phase.
func (p *memPort) push(op pendingOp) {
	if op.t < p.lastOpT {
		op.t = p.lastOpT
	}
	p.lastOpT = op.t
	op.node = p.node
	op.seq = p.opSeq
	p.opSeq++
	p.ops = append(p.ops, op)
}

func (p *memPort) cyc(n uint32) sim.Ticks { return p.clock.Cycles(uint64(n)) }

// l1State is the state an L1 copy takes under an L2 line in state st2:
// dirty for a store; for a load, write permission when L2 has it, with
// dirtiness staying in L2 until the first L1 write. (Here and in dropL1,
// cache.State orders Invalid < Shared < Exclusive < Modified.)
func l1State(write bool, st2 cache.State) cache.State {
	if write {
		return cache.Modified
	}
	return min(st2, cache.Exclusive)
}

// fillL1 inserts the L1 line for pa in state st after a fill from L2 or
// memory.
func (p *memPort) fillL1(pa uint64, st cache.State) {
	v := p.l1.Insert(pa, st)
	if v.Valid && v.Dirty {
		// Dirty L1 victim folds into the (inclusive) L2 copy.
		p.l2.MarkDirty(v.Addr)
	}
}

// dropL1 invalidates every L1 sub-line of the L2 line at line and
// returns the strongest state any of them held.
func (p *memPort) dropL1(line uint64) cache.State {
	top := cache.Invalid
	for a := line; a < line+p.l2.Config().LineSize; a += p.l1.Config().LineSize {
		top = max(top, p.l1.Invalidate(a))
	}
	return top
}

// evictL2 handles an L2 victim: enforce inclusion in L1, write back
// dirty data, or send a replacement hint for clean-exclusive lines so
// the directory's owner records never go stale.
func (p *memPort) evictL2(t sim.Ticks, v cache.Victim) {
	dirty := p.dropL1(v.Addr) == cache.Modified || v.Dirty
	switch {
	case dirty:
		p.m.mem.Writeback(t, p.node, v.Addr)
	case v.State == cache.Exclusive:
		p.m.mem.Replace(t, p.node, v.Addr)
	}
}

// install places the line holding pa in L2 in state st (in place when
// it is already there) and its L1 sub-line above it.
func (p *memPort) install(t sim.Ticks, pa uint64, st cache.State) {
	if v := p.l2.Insert(pa, st); v.Valid {
		p.evictL2(t, v)
	}
	p.fillL1(pa, st)
}

// Load implements cpu.Port.
func (p *memPort) Load(t sim.Ticks, va uint64, size uint32) cpu.MemInfo {
	return p.touch(t, access{op: isa.Load, va: va}, true)
}

// Store implements cpu.Port.
func (p *memPort) Store(t sim.Ticks, va uint64, size uint32) cpu.MemInfo {
	return p.touch(t, access{op: isa.Store, va: va}, true)
}

// Prefetch implements cpu.Port: non-binding, dropped on a TLB miss.
func (p *memPort) Prefetch(t sim.Ticks, va uint64) {
	p.prefetch(t, access{op: isa.Prefetch, va: va}, true)
}

// CacheOp implements cpu.Port (hit-writeback-invalidate semantics).
func (p *memPort) CacheOp(t sim.Ticks, va uint64, aux uint32) cpu.MemInfo {
	return p.touch(t, access{op: isa.CacheOp, va: va, aux: aux}, true)
}

// SyscallCost implements cpu.Port.
func (p *memPort) SyscallCost(aux uint32) uint32 { return p.m.os.SyscallCost(p.node, aux) }

// warmTouch is the functional fast-forward's state path: it performs
// the translation, cache, and directory transitions an access would
// make — TLB refills are counted, lines move through L1/L2 with real
// victim handling, and misses run the full coherence protocol at time
// t so the directory's sharer/owner records stay exact — while
// charging no time and touching none of the timing-only structures
// (write buffer, MSHRs, L2 interface). Detailed windows that follow a
// warm fast-forward therefore start against warm cache/TLB/directory
// state; the elided timing is the sampling error the harness measures.
// A CACHE op is state-changing: its invalidation and writeback happen
// so later windows see the flushed lines.
//
// Warm accesses never suspend the core: deferred shared work is always
// fire-and-forget, and the tail's rechecks keep a line another
// deferred op already landed from being fetched twice.
func (p *memPort) warmTouch(t sim.Ticks, op isa.Op, va uint64) {
	if op == isa.Prefetch {
		// Non-binding and timing-motivated; dropping prefetches is
		// part of the functional model.
		return
	}
	p.touch(t, access{op: op, va: va, warm: true}, true)
}

// touch is the access path of a load, a store or a CACHE op. canDefer
// selects the parallel-phase prefix (shared work becomes a pendingOp)
// versus the barrier executor's synchronous re-entry. A warm touch
// skips only the statements that charge time or occupy the L2
// interface; the MemInfo it returns is meaningless.
func (p *memPort) touch(t sim.Ticks, a access, canDefer bool) cpu.MemInfo {
	if canDefer && p.m.os.NeedsFault(a.va) {
		// Page faults mutate the shared page table: defer the whole
		// access to the serial phase.
		p.push(pendingOp{kind: opAccess, t: t, acc: a})
		return cpu.MemInfo{Flags: cpu.FlagPending}
	}
	tr := p.m.os.Translate(p.node, a.va)
	if tr.PenaltyCycles > 0 && !a.warm {
		t += p.cyc(tr.PenaltyCycles)
	}
	pa, tlb := tr.PA, cpu.MemFlags(0) // tlb goes into the MemInfo, however the access ends
	if tr.TLBMiss {
		tlb = cpu.FlagTLBMiss
	}
	if a.op == isa.CacheOp {
		return p.flush(t, pa, tlb, a.warm, canDefer)
	}
	write := a.op == isa.Store
	if st, hit := p.l1.Access(pa, write); hit {
		if write && st == cache.Exclusive {
			// First write to an exclusively fetched line: propagate
			// dirtiness to the inclusive L2 copy.
			p.l2.MarkDirty(pa)
		}
		return cpu.MemInfo{Done: t + p.cyc(p.m.cfg.L1HitCycles), L1Hit: true, Flags: tlb}
	}
	if !a.warm {
		t += p.cyc(p.m.cfg.L1HitCycles) // L1 miss detection
		t = p.l2if.AcquireForTagCheck(t)
	}
	if st2, hit2 := p.l2.Access(pa, write); hit2 {
		p.fillL1(pa, l1State(write, st2))
		return cpu.MemInfo{Done: t + p.cyc(p.m.cfg.L2HitCycles), Flags: cpu.FlagL2Hit | tlb}
	}
	if !a.warm {
		// L2 miss (for a store, also an upgrade): the off-chip tag check
		// itself costs L2HitCycles before the request can leave the chip.
		t += p.cyc(p.m.cfg.L2HitCycles)
	}
	if !canDefer {
		return p.finish(t, a, pa, tlb, false)
	}
	if write && !a.warm {
		// L2 write miss or upgrade: fetch/own through the memory system,
		// but let the processor proceed through the write buffer. A miss
		// with a free slot defers fire-and-forget: the processor proceeds
		// immediately and the barrier patches the slot's drain time.
		if proceed, ok := p.wb.PushPending(t); ok {
			p.push(pendingOp{kind: opMiss, t: t, pa: pa, acc: a, placeholder: true})
			return cpu.MemInfo{Done: proceed, IssuedAt: t, Flags: cpu.FlagWentToMemory | tlb}
		}
		// Every slot holds an unpatched placeholder: the oldest drain
		// time is unknowable until the barrier, so the store blocks.
	}
	p.push(pendingOp{kind: opMiss, t: t, pa: pa, acc: a, tlb: tlb})
	return cpu.MemInfo{Flags: cpu.FlagPending}
}

// prefetch is the Prefetch body (see touch for the canDefer contract).
// Prefetches are always fire-and-forget: the processor never waits.
func (p *memPort) prefetch(t sim.Ticks, a access, canDefer bool) {
	var pa uint64
	if p.m.os.Kind() == osmodel.SimOS {
		pp, ok := p.m.os.PageTable().Lookup(a.va)
		if !ok || !p.m.os.TLB(p.node).Probe(vm.VPage(a.va)) {
			return
		}
		pa = pp.Addr(a.va)
	} else {
		if canDefer && p.m.os.NeedsFault(a.va) {
			// Solo backdoor-maps on any touch, prefetches included.
			p.push(pendingOp{kind: opAccess, t: t, acc: a})
			return
		}
		pa = p.m.os.Translate(p.node, a.va).PA
	}
	if p.l1.Lookup(pa) != cache.Invalid || p.l2.Lookup(pa) != cache.Invalid {
		return
	}
	if canDefer {
		p.push(pendingOp{kind: opMiss, t: t, pa: pa, acc: a})
		return
	}
	p.finish(t, a, pa, 0, false)
}

// flush is the CacheOp body, behind touch's translation. The
// invalidations are node-local; only a dirty line's writeback touches
// the memory system, and the processor never waits on it.
func (p *memPort) flush(t sim.Ticks, pa uint64, flags cpu.MemFlags, warm, canDefer bool) cpu.MemInfo {
	line := p.l2.Config().LineAddr(pa)
	dirty := max(p.dropL1(line), p.l2.Invalidate(pa)) == cache.Modified
	if !warm {
		t += p.cyc(p.m.cfg.L2HitCycles)
	}
	if dirty {
		flags |= cpu.FlagDirtyCacheOp | cpu.FlagWentToMemory
		if canDefer {
			p.push(pendingOp{kind: opWriteback, t: t, pa: line})
		} else {
			p.m.mem.Writeback(t, p.node, line)
		}
	}
	return cpu.MemInfo{Done: t, Flags: flags}
}

// finish is the shared tail of an L2 miss, entered at the barrier (or
// synchronously from the re-run path): acquire the line, then answer
// whoever waits — nobody for a prefetch or a warm touch; a store only
// for the write buffer, where its memory operation drains at done.
func (p *memPort) finish(t sim.Ticks, a access, pa uint64, tlb cpu.MemFlags, placeholder bool) cpu.MemInfo {
	done, issuedAt := p.acquire(t, a, pa)
	if a.warm || a.op == isa.Prefetch {
		return cpu.MemInfo{}
	}
	if a.op == isa.Store {
		if placeholder {
			p.wb.Patch(done)
			return cpu.MemInfo{}
		}
		done = p.wb.Push(t, done)
	}
	return cpu.MemInfo{Done: done, IssuedAt: issuedAt, Flags: cpu.FlagWentToMemory | tlb}
}

// acquire gets the missed line in the state the access needs (Modified
// for a store) through an outstanding miss, a copy an earlier deferred
// op landed, or the memory system, and returns when it is usable and
// when the request issued. MSHR state and the L2 recheck run here, not
// in the prefix, so they see every same-node operation that executed
// since the miss was detected. A warm touch does it all at t.
func (p *memPort) acquire(t sim.Ticks, a access, pa uint64) (done, issuedAt sim.Ticks) {
	line := p.l2.Config().LineAddr(pa)
	write := a.op == isa.Store
	restart := p.cyc(p.m.cfg.RestartCycles)
	st2 := p.l2.Lookup(pa)
	if a.op == isa.Prefetch && (p.l1.Lookup(pa) != cache.Invalid || st2 != cache.Invalid) {
		// The presence and MSHR rechecks run here so a prefetch whose
		// line arrived through an op executed in between degrades to a
		// no-op, exactly like a prefetch that raced a demand miss on
		// hardware. Presence first: the MSHR lookup counts a merge.
		return t, t
	}
	if !a.warm {
		if mdone, ok := p.mshr.Lookup(line, t); ok {
			switch a.op {
			case isa.Load:
				// The load rides the outstanding fill: a Shared L1 copy,
				// L2 left to the miss it merged with.
				p.fillL1(pa, cache.Shared)
				return max(mdone+restart, t), t
			case isa.Store:
				p.install(mdone, pa, cache.Modified)
			}
			return mdone, t
		}
	}
	if st2 == cache.Modified || st2 == cache.Exclusive || (!write && st2 == cache.Shared) {
		// An earlier deferred op (a prefetch or another access by this
		// node) landed the line between the tag check and this barrier:
		// only the pipeline restart remains. A store needs it landed
		// with write permission: a Shared copy still takes the upgrade.
		done = t
		if !a.warm {
			done += restart
		}
		switch {
		case !write:
			p.fillL1(pa, l1State(false, st2))
		case a.warm:
			p.l2.MarkDirty(pa)
			p.fillL1(pa, cache.Modified)
		default:
			p.install(done, pa, cache.Modified)
		}
		return done, t
	}
	issuedAt = t
	if !a.warm {
		issuedAt = p.mshr.Reserve(line, t)
	}
	arrive, st := p.fetch(issuedAt, line, write)
	done = t
	if !a.warm {
		// Critical-word-first: the processor restarts as the line
		// transfer begins; the external interface stays busy for the
		// whole line. Only a load pays the pipeline restart on top.
		done = p.l2if.AcquireForRefill(arrive)
		if a.op == isa.Load {
			done += restart
		}
		p.mshr.Complete(line, done)
	}
	p.install(done, pa, st)
	return done, issuedAt
}

// fetch runs the coherence transaction for line at t and returns when
// the line arrives and the state it was granted in: the one place the
// port asks the memory system for a line and counts what it asked.
func (p *memPort) fetch(t sim.Ticks, line uint64, write bool) (sim.Ticks, cache.State) {
	if write {
		res := p.m.mem.Write(t, p.node, line)
		p.cases[res.Case]++
		return res.Done, cache.Modified
	}
	res := p.m.mem.Read(t, p.node, line)
	p.cases[res.Case]++
	if res.Exclusive {
		return res.Done, cache.Exclusive
	}
	return res.Done, cache.Shared
}
