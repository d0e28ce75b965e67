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

// PortStats counts per-node memory-path events.
type PortStats struct {
	Loads, Stores   uint64
	L1Hits, L2Hits  uint64
	MemReads        uint64
	MemWrites       uint64
	Upgrades        uint64
	Prefetches      uint64
	PrefetchDrops   uint64 // dropped on TLB miss (non-binding)
	TLBPenaltyTicks sim.Ticks
	WBStallTicks    sim.Ticks
	MSHRStallTicks  sim.Ticks
	ReadLatTicks    sim.Ticks // sum of memsys read latencies (debug)
	WriteLatTicks   sim.Ticks // sum of memsys write latencies (debug)
	CaseCounts      [proto.NumCases]uint64
}

// memPort is a node's data-access path: TLB/OS translation, L1, L2,
// write buffer, MSHRs, L2 interface, then the shared memory system. It
// implements cpu.Port.
//
// Under the windowed engine every access splits into a node-local
// prefix (translation of mapped pages, L1/L2 tag checks, write-buffer
// slot reservation) that runs inside the parallel phase, and a shared
// tail (memory-system transactions, MSHR bookkeeping against ops that
// executed in between, page faults) that is deferred as a pendingOp and
// executed at the next barrier in global (t, node, seq) order. The
// finish* methods are those tails; the canDefer=false paths let the
// barrier executor re-enter the same code without re-deferring.
type memPort struct {
	m     *Machine
	node  int
	clock sim.Clock
	l1    *cache.Cache
	l2    *cache.Cache
	wb    *cache.WriteBuffer
	mshr  *cache.MSHRs
	l2if  *cache.L2Interface
	stats PortStats

	// Deferred-operation sink: ops this node produced during the
	// current parallel phase, drained and merged at the barrier. seq
	// numbers ops per node; lastOpT keeps per-node op times monotone so
	// the global (t, node, seq) sort preserves each node's issue order.
	ops     []pendingOp
	opSeq   uint64
	lastOpT sim.Ticks
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

// fillL1 inserts the L1 line for pa after a fill from L2 or memory.
// exclusive selects whether the L1 copy carries write permission.
func (p *memPort) fillL1(pa uint64, exclusive bool) {
	st := cache.Shared
	if exclusive {
		st = cache.Exclusive
	}
	v := p.l1.Insert(pa, st)
	if v.Valid && v.Dirty {
		// Dirty L1 victim folds into the (inclusive) L2 copy.
		p.l2.MarkDirty(v.Addr)
	}
}

// evictL2 handles an L2 victim: enforce inclusion in L1, write back
// dirty data, or send a replacement hint for clean-exclusive lines so
// the directory's owner records never go stale.
func (p *memPort) evictL2(t sim.Ticks, v cache.Victim) {
	if !v.Valid {
		return
	}
	dirty := v.Dirty
	for a := v.Addr; a < v.Addr+p.l2.Config().LineSize; a += p.l1.Config().LineSize {
		if p.l1.Invalidate(a) == cache.Modified {
			dirty = true
		}
	}
	switch {
	case dirty:
		p.m.mem.Writeback(t, p.node, v.Addr)
	case v.State == cache.Exclusive:
		p.m.mem.Replace(t, p.node, v.Addr)
	}
}

// Load implements cpu.Port.
func (p *memPort) Load(t sim.Ticks, va uint64, size uint32) cpu.MemInfo {
	p.stats.Loads++
	return p.load(t, va, size, true)
}

// load is the Load body. canDefer selects the parallel-phase prefix
// (shared work becomes a pendingOp) versus the barrier executor's
// synchronous re-entry.
func (p *memPort) load(t sim.Ticks, va uint64, size uint32, canDefer bool) cpu.MemInfo {
	if canDefer && p.m.os.NeedsFault(va) {
		// Page faults mutate the shared page table: defer the whole
		// access to the serial phase.
		p.push(pendingOp{kind: opLoadFull, t: t, va: va, size: size})
		return cpu.MemInfo{Pending: true}
	}
	tr := p.m.os.Translate(p.node, va)
	if tr.PenaltyCycles > 0 {
		d := p.cyc(tr.PenaltyCycles)
		p.stats.TLBPenaltyTicks += d
		t += d
	}
	pa := tr.PA
	if _, hit := p.l1.Access(pa, false); hit {
		p.stats.L1Hits++
		return cpu.MemInfo{Done: t + p.cyc(p.m.cfg.L1HitCycles), L1Hit: true, TLBMiss: tr.TLBMiss}
	}
	t2 := t + p.cyc(p.m.cfg.L1HitCycles) // L1 miss detection
	t2 = p.l2if.AcquireForTagCheck(t2)
	if st2, hit2 := p.l2.Access(pa, false); hit2 {
		p.stats.L2Hits++
		done := t2 + p.cyc(p.m.cfg.L2HitCycles)
		p.fillL1(pa, st2 == cache.Modified || st2 == cache.Exclusive)
		return cpu.MemInfo{Done: done, L2Hit: true, TLBMiss: tr.TLBMiss}
	}
	// L2 miss: the off-chip tag check itself costs L2HitCycles before
	// the request can leave the chip.
	t2 += p.cyc(p.m.cfg.L2HitCycles)
	if canDefer {
		p.push(pendingOp{kind: opLoadMiss, t: t2, pa: pa, tlbMiss: tr.TLBMiss})
		return cpu.MemInfo{Pending: true}
	}
	return p.finishLoadMiss(t2, pa, tr.TLBMiss)
}

// finishLoadMiss is the shared tail of a load L2 miss, entered at the
// barrier (or synchronously from the full-access path). MSHR state and
// the L2 recheck run here, not in the prefix, so they see every
// same-node operation that executed since the miss was detected.
func (p *memPort) finishLoadMiss(t2 sim.Ticks, pa uint64, tlbMiss bool) cpu.MemInfo {
	line := p.l2.Config().LineAddr(pa)
	if mdone, ok := p.mshr.Lookup(line, t2); ok {
		done := mdone + p.cyc(p.m.cfg.RestartCycles)
		if done < t2 {
			done = t2
		}
		p.fillL1(pa, false)
		return cpu.MemInfo{Done: done, TLBMiss: tlbMiss, WentToMemory: true, IssuedAt: t2}
	}
	if st2 := p.l2.Lookup(pa); st2 != cache.Invalid {
		// An earlier deferred op (a prefetch or another access by this
		// node) landed the line between the tag check and this barrier:
		// only the pipeline restart remains.
		done := t2 + p.cyc(p.m.cfg.RestartCycles)
		p.fillL1(pa, st2 == cache.Modified || st2 == cache.Exclusive)
		return cpu.MemInfo{Done: done, TLBMiss: tlbMiss, WentToMemory: true, IssuedAt: t2}
	}
	issueT := p.mshr.Reserve(line, t2)
	res := p.m.mem.Read(issueT, p.node, line)
	p.stats.MemReads++
	p.stats.CaseCounts[res.Case]++
	p.stats.ReadLatTicks += res.Done - issueT
	// Critical-word-first: the processor restarts as the line transfer
	// begins; the external interface stays busy for the whole line.
	done := p.l2if.AcquireForRefill(res.Done)
	done += p.cyc(p.m.cfg.RestartCycles)
	p.mshr.Complete(line, done)
	st := cache.Shared
	if res.Exclusive {
		st = cache.Exclusive
	}
	p.evictL2(done, p.l2.Insert(line, st))
	p.fillL1(pa, res.Exclusive)
	return cpu.MemInfo{Done: done, TLBMiss: tlbMiss, WentToMemory: true, IssuedAt: issueT}
}

// Store implements cpu.Port.
func (p *memPort) Store(t sim.Ticks, va uint64, size uint32) cpu.MemInfo {
	p.stats.Stores++
	return p.store(t, va, size, true)
}

// store is the Store body (see load for the canDefer contract). A miss
// with a free write-buffer slot defers fire-and-forget: the processor
// proceeds immediately and the barrier patches the slot's drain time.
func (p *memPort) store(t sim.Ticks, va uint64, size uint32, canDefer bool) cpu.MemInfo {
	if canDefer && p.m.os.NeedsFault(va) {
		p.push(pendingOp{kind: opStoreFull, t: t, va: va, size: size})
		return cpu.MemInfo{Pending: true}
	}
	tr := p.m.os.Translate(p.node, va)
	if tr.PenaltyCycles > 0 {
		d := p.cyc(tr.PenaltyCycles)
		p.stats.TLBPenaltyTicks += d
		t += d
	}
	pa := tr.PA
	if st, hit := p.l1.Access(pa, true); hit {
		p.stats.L1Hits++
		if st == cache.Exclusive {
			// First write to an exclusively fetched line: propagate
			// dirtiness to the inclusive L2 copy.
			p.l2.MarkDirty(pa)
		}
		return cpu.MemInfo{Done: t + p.cyc(p.m.cfg.L1HitCycles), L1Hit: true, TLBMiss: tr.TLBMiss}
	}
	t2 := t + p.cyc(p.m.cfg.L1HitCycles)
	t2 = p.l2if.AcquireForTagCheck(t2)
	if _, hit2 := p.l2.Access(pa, true); hit2 {
		p.stats.L2Hits++
		done := t2 + p.cyc(p.m.cfg.L2HitCycles)
		p.fillL1(pa, true)
		p.l1.MarkDirty(pa)
		return cpu.MemInfo{Done: done, L2Hit: true, TLBMiss: tr.TLBMiss}
	}
	// L2 write miss or upgrade: fetch/own through the memory system,
	// but let the processor proceed through the write buffer.
	t2 += p.cyc(p.m.cfg.L2HitCycles)
	if canDefer {
		if proceed, ok := p.wb.PushPending(t2); ok {
			p.push(pendingOp{kind: opStoreMiss, t: t2, pa: pa})
			return cpu.MemInfo{Done: proceed, TLBMiss: tr.TLBMiss, WentToMemory: true, IssuedAt: t2}
		}
		// Every slot holds an unpatched placeholder: the oldest drain
		// time is unknowable until the barrier, so the store blocks.
		p.push(pendingOp{kind: opStoreMissBlock, t: t2, pa: pa, tlbMiss: tr.TLBMiss})
		return cpu.MemInfo{Pending: true}
	}
	mdone, issuedAt := p.finishStoreMiss(t2, pa)
	proceed := p.wb.Push(t2, mdone)
	return cpu.MemInfo{Done: proceed, TLBMiss: tr.TLBMiss, WentToMemory: true, IssuedAt: issuedAt}
}

// finishStoreMiss is the shared tail of a store L2 miss: acquire the
// line in Modified state through the memory system (or an outstanding
// miss, or a copy an earlier deferred op landed) and return when the
// store's memory operation drains.
func (p *memPort) finishStoreMiss(t2 sim.Ticks, pa uint64) (mdone, issuedAt sim.Ticks) {
	line := p.l2.Config().LineAddr(pa)
	issuedAt = t2
	if md, ok := p.mshr.Lookup(line, t2); ok {
		mdone = md
	} else if st2 := p.l2.Lookup(pa); st2 == cache.Modified || st2 == cache.Exclusive {
		// Landed with write permission in between: only the restart
		// remains. A Shared copy still needs the upgrade below.
		mdone = t2 + p.cyc(p.m.cfg.RestartCycles)
	} else {
		issueT := p.mshr.Reserve(line, t2)
		issuedAt = issueT
		res := p.m.mem.Write(issueT, p.node, line)
		p.stats.WriteLatTicks += res.Done - issueT
		p.stats.MemWrites++
		p.stats.CaseCounts[res.Case]++
		if res.Case == proto.Upgrade {
			p.stats.Upgrades++
		}
		mdone = p.l2if.AcquireForRefill(res.Done)
		p.mshr.Complete(line, mdone)
	}
	p.evictL2(mdone, p.l2.Insert(line, cache.Modified))
	p.fillL1(pa, true)
	p.l1.MarkDirty(pa)
	return mdone, issuedAt
}

// Prefetch implements cpu.Port: non-binding, dropped on a TLB miss.
func (p *memPort) Prefetch(t sim.Ticks, va uint64) {
	p.stats.Prefetches++
	p.prefetch(t, va, true)
}

// prefetch is the Prefetch body (see load for the canDefer contract).
// Prefetches are always fire-and-forget: the processor never waits.
func (p *memPort) prefetch(t sim.Ticks, va uint64, canDefer bool) {
	var pa uint64
	if p.m.os.Kind() == osmodel.SimOS {
		tl := p.m.os.TLB(p.node)
		if !tl.Probe(vm.VPage(va)) {
			p.stats.PrefetchDrops++
			return
		}
		pp, ok := p.m.os.PageTable().Lookup(va)
		if !ok {
			p.stats.PrefetchDrops++
			return
		}
		pa = pp.Addr(va)
	} else {
		if canDefer && p.m.os.NeedsFault(va) {
			// Solo backdoor-maps on any touch, prefetches included.
			p.push(pendingOp{kind: opPrefetchFull, t: t, va: va})
			return
		}
		pa = p.m.os.Translate(p.node, va).PA
	}
	if p.l1.Lookup(pa) != cache.Invalid || p.l2.Lookup(pa) != cache.Invalid {
		return
	}
	if canDefer {
		p.push(pendingOp{kind: opPrefetch, t: t, pa: pa})
		return
	}
	p.finishPrefetch(t, pa)
}

// finishPrefetch issues a deferred prefetch's memory read. The presence
// and MSHR rechecks run here so a prefetch whose line arrived through
// an op executed in between degrades to a no-op, exactly like a
// prefetch that raced a demand miss on hardware.
func (p *memPort) finishPrefetch(t sim.Ticks, pa uint64) {
	if p.l1.Lookup(pa) != cache.Invalid || p.l2.Lookup(pa) != cache.Invalid {
		return
	}
	line := p.l2.Config().LineAddr(pa)
	if _, ok := p.mshr.Lookup(line, t); ok {
		return
	}
	issueT := p.mshr.Reserve(line, t)
	res := p.m.mem.Read(issueT, p.node, line)
	p.stats.MemReads++
	p.stats.CaseCounts[res.Case]++
	done := p.l2if.AcquireForRefill(res.Done)
	p.mshr.Complete(line, done)
	st := cache.Shared
	if res.Exclusive {
		st = cache.Exclusive
	}
	p.evictL2(done, p.l2.Insert(line, st))
	p.fillL1(pa, res.Exclusive)
}

// CacheOp implements cpu.Port (hit-writeback-invalidate semantics).
func (p *memPort) CacheOp(t sim.Ticks, va uint64, aux uint32) cpu.MemInfo {
	return p.cacheOp(t, va, aux, true)
}

// cacheOp is the CacheOp body (see load for the canDefer contract).
// The invalidations are node-local; only a dirty line's writeback
// touches the memory system, and the processor never waits on it.
func (p *memPort) cacheOp(t sim.Ticks, va uint64, aux uint32, canDefer bool) cpu.MemInfo {
	if canDefer && p.m.os.NeedsFault(va) {
		p.push(pendingOp{kind: opCacheFull, t: t, va: va, aux: aux})
		return cpu.MemInfo{Pending: true}
	}
	tr := p.m.os.Translate(p.node, va)
	if tr.PenaltyCycles > 0 {
		t += p.cyc(tr.PenaltyCycles)
	}
	pa := tr.PA
	dirty := false
	for a := p.l2.Config().LineAddr(pa); a < p.l2.Config().LineAddr(pa)+p.l2.Config().LineSize; a += p.l1.Config().LineSize {
		if p.l1.Invalidate(a) == cache.Modified {
			dirty = true
		}
	}
	if p.l2.Invalidate(pa) == cache.Modified {
		dirty = true
	}
	done := t + p.cyc(p.m.cfg.L2HitCycles)
	if dirty {
		if canDefer {
			p.push(pendingOp{kind: opWriteback, t: done, pa: p.l2.Config().LineAddr(pa)})
		} else {
			p.m.mem.Writeback(done, p.node, p.l2.Config().LineAddr(pa))
		}
	}
	return cpu.MemInfo{Done: done, DirtyCacheOp: dirty, TLBMiss: tr.TLBMiss, WentToMemory: dirty}
}

// SyscallCost implements cpu.Port.
func (p *memPort) SyscallCost(aux uint32) uint32 { return p.m.os.SyscallCost(p.node, aux) }

// warmAccess is the functional fast-forward's state path: it performs
// the translation, cache, and directory transitions an access would
// make — TLB refills are counted, lines move through L1/L2 with real
// victim handling, and misses run the full coherence protocol at time
// t so the directory's sharer/owner records stay exact — while
// charging no time and touching none of the timing-only structures
// (write buffer, MSHRs, L2 interface). Detailed windows that follow a
// warm fast-forward therefore start against warm cache/TLB/directory
// state; the elided timing is the sampling error the harness measures.
//
// Warm accesses never suspend the core: deferred shared work is always
// fire-and-forget, and the finishWarm* rechecks keep a line another
// deferred op already landed from being fetched twice.
func (p *memPort) warmAccess(t sim.Ticks, op isa.Op, va uint64, canDefer bool) {
	switch op {
	case isa.Load:
		if canDefer && p.m.os.NeedsFault(va) {
			p.push(pendingOp{kind: opWarmFull, t: t, op: op, va: va})
			return
		}
		p.stats.Loads++
		pa := p.m.os.Translate(p.node, va).PA
		if _, hit := p.l1.Access(pa, false); hit {
			p.stats.L1Hits++
			return
		}
		if st2, hit2 := p.l2.Access(pa, false); hit2 {
			p.stats.L2Hits++
			p.fillL1(pa, st2 == cache.Modified || st2 == cache.Exclusive)
			return
		}
		if canDefer {
			p.push(pendingOp{kind: opWarmLoad, t: t, pa: pa})
			return
		}
		p.finishWarmLoad(t, pa)

	case isa.Store:
		if canDefer && p.m.os.NeedsFault(va) {
			p.push(pendingOp{kind: opWarmFull, t: t, op: op, va: va})
			return
		}
		p.stats.Stores++
		pa := p.m.os.Translate(p.node, va).PA
		if st, hit := p.l1.Access(pa, true); hit {
			p.stats.L1Hits++
			if st == cache.Exclusive {
				p.l2.MarkDirty(pa)
			}
			return
		}
		if _, hit2 := p.l2.Access(pa, true); hit2 {
			p.stats.L2Hits++
			p.fillL1(pa, true)
			p.l1.MarkDirty(pa)
			return
		}
		if canDefer {
			p.push(pendingOp{kind: opWarmStore, t: t, pa: pa})
			return
		}
		p.finishWarmStore(t, pa)

	case isa.CacheOp:
		// State-changing: perform the invalidation and writeback so
		// later windows see the flushed lines.
		if canDefer && p.m.os.NeedsFault(va) {
			p.push(pendingOp{kind: opWarmFull, t: t, op: op, va: va})
			return
		}
		pa := p.m.os.Translate(p.node, va).PA
		dirty := false
		for a := p.l2.Config().LineAddr(pa); a < p.l2.Config().LineAddr(pa)+p.l2.Config().LineSize; a += p.l1.Config().LineSize {
			if p.l1.Invalidate(a) == cache.Modified {
				dirty = true
			}
		}
		if p.l2.Invalidate(pa) == cache.Modified {
			dirty = true
		}
		if dirty {
			if canDefer {
				p.push(pendingOp{kind: opWriteback, t: t, pa: p.l2.Config().LineAddr(pa)})
			} else {
				p.m.mem.Writeback(t, p.node, p.l2.Config().LineAddr(pa))
			}
		}

	case isa.Prefetch:
		// Non-binding and timing-motivated; dropping prefetches is
		// part of the functional model.
	}
}

// finishWarmLoad completes a deferred warm load miss.
func (p *memPort) finishWarmLoad(t sim.Ticks, pa uint64) {
	if st2 := p.l2.Lookup(pa); st2 != cache.Invalid {
		p.fillL1(pa, st2 == cache.Modified || st2 == cache.Exclusive)
		return
	}
	line := p.l2.Config().LineAddr(pa)
	res := p.m.mem.Read(t, p.node, line)
	p.stats.MemReads++
	p.stats.CaseCounts[res.Case]++
	st := cache.Shared
	if res.Exclusive {
		st = cache.Exclusive
	}
	p.evictL2(t, p.l2.Insert(line, st))
	p.fillL1(pa, res.Exclusive)
}

// finishWarmStore completes a deferred warm store miss.
func (p *memPort) finishWarmStore(t sim.Ticks, pa uint64) {
	if st2 := p.l2.Lookup(pa); st2 == cache.Modified || st2 == cache.Exclusive {
		p.l2.MarkDirty(pa)
		p.fillL1(pa, true)
		p.l1.MarkDirty(pa)
		return
	}
	line := p.l2.Config().LineAddr(pa)
	res := p.m.mem.Write(t, p.node, line)
	p.stats.MemWrites++
	p.stats.CaseCounts[res.Case]++
	if res.Case == proto.Upgrade {
		p.stats.Upgrades++
	}
	p.evictL2(t, p.l2.Insert(line, cache.Modified))
	p.fillL1(pa, true)
	p.l1.MarkDirty(pa)
}
