package machine

import (
	"fmt"

	"flashsim/internal/cache"
	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
	"flashsim/internal/sim"
	"flashsim/internal/vm"
)

// BarrierStart and BarrierEnd alias the emitter's timed-section barrier
// ids for convenience.
const (
	BarrierStart = emitter.BarrierStart
	BarrierEnd   = emitter.BarrierEnd
)

// Machine is one fully composed simulated system executing one program.
type Machine struct {
	cfg    Config
	queue  *sim.Queue
	window sim.Ticks   // windowed-engine quantum W (lookahead-derived)
	ops    []pendingOp // the round's deferred ops, every node's, in push order
	mem    memsys.System
	os     *osmodel.OS
	nodes  []*node

	fired    int // events dispatched (the eventCap guard)
	finished int // processors that ran to completion

	barriers   map[uint32]*barrierState
	locks      map[uint32]*lockState
	barrierRel map[uint32][]sim.Ticks

	finishTimes []sim.Ticks
	runErr      error
}

type node struct {
	id   int
	core cpu.CPU
	port *memPort
}

type barrierState struct {
	waiting []int
	maxT    sim.Ticks
}

// lockState is one simulated lock. Its waiters, at most Procs−1, queue
// in a ring of Procs slots made on first contention.
type lockState struct {
	held    bool
	waiters []lockWaiter
	head, n int
}

type lockWaiter struct {
	node  int
	ready sim.Ticks
}

// Run executes prog on a machine described by cfg and returns the
// result. Each call builds its machine from parts reset to their fresh
// state (parts.go), so nothing of an earlier run reaches its result.
func Run(cfg Config, prog emitter.Program) (Result, error) {
	if err := checkExec(cfg, prog); err != nil {
		return Result{}, err
	}
	return RunWith(cfg, NewExecutionDriver(cfg, prog))
}

// checkExec refuses, before the run reads a stream, what an
// execution-driven run of prog on cfg cannot run: a thread count that
// is not cfg's processor count, and a sampling schedule, which only
// trace replay runs; RunWith refuses it too, but after the launch.
func checkExec(cfg Config, prog emitter.Program) error {
	if prog.Threads != cfg.Procs {
		return fmt.Errorf("machine %q: program %s has %d threads but machine has %d processors",
			cfg.Name, prog.FullName(), prog.Threads, cfg.Procs)
	}
	if cfg.Sampling.Enabled {
		return fmt.Errorf("machine %q: sampling runs only on trace replay, not on execution-driven %s",
			cfg.Name, prog.FullName())
	}
	return nil
}

// build assembles a machine around an address space, deferring only
// the core model to newCore — the seam between the execution-driven
// mode (Mipsy/MXS fed by emitter readers) and trace-driven replay.
func build(cfg Config, space *emitter.AddressSpace, newCore func(i int, clock sim.Clock, p *memPort) cpu.CPU) *Machine {
	m := &Machine{
		cfg:        cfg,
		queue:      sim.NewQueue(),
		barriers:   make(map[uint32]*barrierState),
		locks:      make(map[uint32]*lockState),
		barrierRel: make(map[uint32][]sim.Ticks),
	}

	m.os = osParts.Get()
	m.os.Reset(cfg.OS, osmodel.NewPageTable(cfg.OS.Kind, space, cfg.Procs, cfg.Colors()), cfg.Procs)

	switch cfg.Mem {
	case MemNUMA:
		nc := memsys.DefaultNUMAConfig(cfg.Procs)
		if cfg.NUMA != nil {
			nc = *cfg.NUMA
			nc.Nodes = cfg.Procs
		}
		numa := numaParts.Get()
		numa.Reset(nc)
		m.mem = numa
	default:
		fc := memsys.DefaultFlashConfig(cfg.Procs, cfg.FlashTiming)
		if cfg.MagicTable != nil {
			fc.Occupancy = *cfg.MagicTable
		}
		flash := flashParts.Get()
		flash.Reset(fc)
		m.mem = flash
	}
	m.mem.SetPeers(m)
	if cfg.CheckCoherence {
		m.mem.Directory().EnableInvariantChecks()
	}

	// Window width: the interconnect's conservative lookahead (45 ticks
	// per hop by default) scaled by a fixed multiplier. Config-derived,
	// never host-derived, so the quantization — and with it every
	// result — is a function of the configuration alone.
	la := sim.NS(50)
	if net := m.mem.Net(); net != nil {
		la = net.Lookahead()
	}
	m.window = la * windowLookaheadMult
	if windowOverride > 0 {
		m.window = windowOverride
	}

	clock := sim.NewClock(cfg.ClockMHz)
	m.nodes = make([]*node, cfg.Procs)
	m.finishTimes = make([]sim.Ticks, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		p := &memPort{
			m:     m,
			node:  i,
			clock: clock,
			l1:    l1Parts.Get(),
			l2:    l2Parts.Get(),
			wb:    cache.NewWriteBuffer(cfg.WriteBufferEntries),
			mshr:  cache.NewMSHRs(cfg.MSHRCount),
			l2if: &cache.L2Interface{
				Enabled:       cfg.ModelL2InterfaceOccupancy,
				TransferTicks: sim.NS(cfg.L2TransferNS),
			},
		}
		p.l1.Reset(cfg.L1D)
		p.l2.Reset(cfg.L2)
		m.nodes[i] = &node{id: i, core: newCore(i, clock, p), port: p}
	}
	return m
}

// HandleEvent implements sim.Handler: arg is a node id. All hot-path
// scheduling goes through this one pre-bound handler so the event queue
// recycles events instead of allocating a closure per schedule.
func (m *Machine) HandleEvent(now sim.Ticks, arg uint64) {
	m.step(m.nodes[arg], now)
}

// step runs one scheduling slice of a node's processor. It executes in
// the node phase and must touch only node-local state: sync operations
// defer to the barrier like any other shared-state work.
func (m *Machine) step(n *node, now sim.Ticks) {
	out := n.core.Run(now)
	switch out.Kind {
	case cpu.Yield:
		m.resume(n, max(out.Time, now))
	case cpu.Blocked:
		// Suspended mid-instruction on a deferred access; the barrier
		// phase executes the pending op and delivers the resume.
	case cpu.Finished:
		m.finishTimes[n.id] = out.Time
		m.finished++
	case cpu.SyncOp:
		n.port.push(pendingOp{kind: opSync, t: out.Time, acc: access{op: out.Op, aux: out.Aux}})
	}
}

// resume schedules a node's next slice at time t, from the node's own
// step or from the barrier. A barrier delivery may resume a node below
// the queue's dispatch horizon, which sim.Queue accepts.
func (m *Machine) resume(n *node, t sim.Ticks) {
	m.queue.ScheduleFn(t, int32(n.id), m, uint64(n.id))
}

// syncPA synthesizes the physical line address backing a lock or
// barrier variable, round-robined across home nodes (lock and barrier
// traffic exercises the real coherence paths).
func (m *Machine) syncPA(base uint32, id uint32) uint64 {
	home := int32(id) % int32(m.cfg.Procs)
	return vm.PhysPage{Node: home, Frame: base + id}.Addr(0)
}

const (
	lockFrameBase    = 0x00900000
	barrierFrameBase = 0x00A00000
)

// handleSync processes a LOCK/UNLOCK/BARRIER instruction. It runs in
// the barrier's serial phase: every earlier deferred store has already
// patched its write-buffer placeholder (per-node op order), so DrainBy
// sees only resolved drain times.
func (m *Machine) handleSync(n *node, at sim.Ticks, op isa.Op, id uint32) {
	switch op {
	case isa.Barrier:
		t := n.port.wb.DrainBy(at)
		w := m.mem.Write(t, n.id, m.syncPA(barrierFrameBase, id))
		bs := m.barriers[id]
		if bs == nil {
			bs = &barrierState{waiting: make([]int, 0, m.cfg.Procs)}
			m.barriers[id] = bs
		}
		bs.waiting = append(bs.waiting, n.id)
		if w.Done > bs.maxT {
			bs.maxT = w.Done
		}
		if len(bs.waiting) == m.cfg.Procs {
			rel := bs.maxT
			m.barrierRel[id] = append(m.barrierRel[id], rel)
			for _, id2 := range bs.waiting {
				m.resume(m.nodes[id2], rel)
			}
			bs.waiting = bs.waiting[:0]
			bs.maxT = 0
		}
	case isa.Lock:
		t := n.port.wb.DrainBy(at)
		w := m.mem.Write(t, n.id, m.syncPA(lockFrameBase, id))
		ls := m.locks[id]
		if ls == nil {
			ls = &lockState{}
			m.locks[id] = ls
		}
		if !ls.held {
			ls.held = true
			m.resume(n, w.Done)
		} else {
			if ls.waiters == nil {
				ls.waiters = make([]lockWaiter, m.cfg.Procs)
			}
			ls.waiters[(ls.head+ls.n)%len(ls.waiters)] = lockWaiter{node: n.id, ready: w.Done}
			ls.n++
		}
	case isa.Unlock:
		t := n.port.wb.DrainBy(at)
		w := m.mem.Write(t, n.id, m.syncPA(lockFrameBase, id))
		ls := m.locks[id]
		if ls == nil || !ls.held {
			m.runErr = fmt.Errorf("machine %q: node %d unlocked free lock %d", m.cfg.Name, n.id, id)
			m.resume(n, t)
			return
		}
		// The unlocking processor proceeds immediately; the release
		// propagates at the store's completion.
		m.resume(n, t)
		if ls.n > 0 {
			next := ls.waiters[ls.head]
			ls.head = (ls.head + 1) % len(ls.waiters)
			ls.n--
			g := m.mem.Write(max(w.Done, next.ready), next.node, m.syncPA(lockFrameBase, id))
			m.resume(m.nodes[next.node], g.Done)
		} else {
			ls.held = false
		}
	default:
		m.runErr = fmt.Errorf("machine %q: unexpected sync op %v", m.cfg.Name, op)
	}
}

// Invalidate implements memsys.Peers over node n's cache hierarchy.
func (m *Machine) Invalidate(n int, line uint64) bool {
	p := m.nodes[n].port
	return max(p.dropL1(line), p.l2.Invalidate(line)) != cache.Invalid
}

// Downgrade implements memsys.Peers over node n's cache hierarchy.
func (m *Machine) Downgrade(n int, line uint64) (bool, bool) {
	p := m.nodes[n].port
	present, dirty := false, false
	for a := line; a < line+p.l2.Config().LineSize; a += p.l1.Config().LineSize {
		switch p.l1.Downgrade(a) {
		case cache.Modified:
			present, dirty = true, true
		case cache.Exclusive, cache.Shared:
			present = true
		}
	}
	switch p.l2.Downgrade(line) {
	case cache.Modified:
		present, dirty = true, true
	case cache.Exclusive, cache.Shared:
		present = true
	}
	return present, dirty
}
