package memsys

import (
	"flashsim/internal/network"
	"flashsim/internal/proto"
	"flashsim/internal/recycle"
	"flashsim/internal/sim"
)

// NUMAConfig holds the generic NUMA model's latency parameters, "set to
// match hardware latencies, known well in advance of building the
// hardware". The model simulates network latencies, contention for main
// memory, and the latency through the directory controller — but "it
// does not model occupancy of the directory controller beyond the normal
// latency path, nor does it model contention in the network or the
// routers."
type NUMAConfig struct {
	Nodes int
	// ControllerNS is the pass-through latency of the directory
	// controller (MAGIC, in the case of FLASH) — pure latency, never
	// occupancy.
	ControllerNS float64
	// MemoryNS is the DRAM access latency for a full line.
	MemoryNS float64
	// MemoryBanks is the number of contended memory banks per node
	// (main-memory contention is the one queueing effect NUMA keeps).
	MemoryBanks int
	// HopNS is the per-hop network latency.
	HopNS float64
	// PerByteNS is the serialization time per byte (latency only).
	PerByteNS float64
	// InterventionNS is the dirty-line extraction cost at an owner.
	InterventionNS float64
	// BusNS is the processor<->controller bus latency, each way.
	BusNS float64
}

// DefaultNUMAConfig returns the generic model parameterized with the
// FLASH design latencies.
func DefaultNUMAConfig(nodes int) NUMAConfig {
	return NUMAConfig{
		Nodes:          nodes,
		ControllerNS:   160, // ~12 PP cycles at 75 MHz, as latency
		MemoryNS:       220, // 140 ns first word + line streaming
		MemoryBanks:    4,
		HopNS:          60, // hop + router, folded
		PerByteNS:      1.25,
		InterventionNS: 250,
		BusNS:          50,
	}
}

// NUMA is the generic NUMA memory-system model.
type NUMA struct {
	cfg NUMAConfig
	// lat holds cfg's size-independent latencies in ticks, converted
	// once by Reset.
	lat   struct{ ctrl, memory, hop, interv, bus sim.Ticks }
	net   network.Network
	dir   proto.Directory
	dram  []*sim.Banks
	peers Peers
}

// Reset makes n the idle model for cfg, in n's directory, interconnect
// and memory banks. A zero NUMA is ready for it.
func (n *NUMA) Reset(cfg NUMAConfig) {
	ncfg := network.DefaultConfig(cfg.Nodes)
	ncfg.ModelContention = false
	ncfg.HopTicks = sim.NS(cfg.HopNS)
	ncfg.RouterTicks = 0
	banks := cfg.MemoryBanks
	if banks <= 0 {
		banks = 1
	}
	n.cfg, n.peers = cfg, nopPeers{}
	n.lat.ctrl, n.lat.memory, n.lat.hop = sim.NS(cfg.ControllerNS), sim.NS(cfg.MemoryNS), ncfg.HopTicks
	n.lat.interv, n.lat.bus = sim.NS(cfg.InterventionNS), sim.NS(cfg.BusNS)
	n.net.Reset(ncfg)
	n.dir.Reset(cfg.Nodes)
	n.dram = recycle.Renew(n.dram, cfg.Nodes, func(b *sim.Banks) { b.Reset(banks) })
}

// Name identifies the model.
func (n *NUMA) Name() string { return "numa" }

// SetPeers registers cache-intervention callbacks.
func (n *NUMA) SetPeers(p Peers) { n.peers = p }

// Directory exposes the protocol directory.
func (n *NUMA) Directory() *proto.Directory { return &n.dir }

// Net exposes the (latency-only) interconnect.
func (n *NUMA) Net() *network.Network { return &n.net }

// hop returns pure network latency for size bytes from a to b.
func (n *NUMA) hop(t sim.Ticks, a, b, size int) sim.Ticks {
	if a == b {
		return t
	}
	hops := n.net.Hops(a, b)
	lat := sim.Ticks(hops)*n.lat.hop + sim.NS(n.cfg.PerByteNS*float64(size))
	n.net.Send(t, a, b, size) // statistics only; contention is off
	return t + lat
}

// memory reserves a DRAM bank at node (the one contention effect NUMA
// models).
func (n *NUMA) memory(t sim.Ticks, node int, pa uint64) sim.Ticks {
	_, done := n.dram[node].Acquire(pa>>7, t, n.lat.memory)
	return done
}

func (n *NUMA) ctrl(t sim.Ticks) sim.Ticks { return t + n.lat.ctrl }
func (n *NUMA) bus(t sim.Ticks) sim.Ticks  { return t + n.lat.bus }

// Read satisfies a read miss.
func (n *NUMA) Read(t sim.Ticks, node int, pa uint64) Result {
	h := home(pa)
	rr := n.dir.Read(pa, h, node)
	t1 := n.bus(t)
	t1 = n.ctrl(t1) // requester-side controller latency
	t1 = n.hop(t1, node, h, ReqBytes)
	switch rr.Case {
	case proto.LocalClean, proto.RemoteClean:
		t1 = n.ctrl(t1)
		t1 = n.memory(t1, h, pa)
		t1 = n.hop(t1, h, node, DataBytes)
		t1 = n.ctrl(t1)
		return Result{Done: n.bus(t1), Case: rr.Case, Exclusive: rr.Exclusive}
	default:
		owner := rr.Owner
		t1 = n.ctrl(t1)
		t1 = n.hop(t1, h, owner, ReqBytes)
		t1 = n.ctrl(t1)
		t1 += n.lat.interv
		n.peers.Downgrade(owner, pa)
		// Sharing writeback to home happens off the critical path and,
		// in this model, consumes nothing.
		t1 = n.hop(t1, owner, node, DataBytes)
		t1 = n.ctrl(t1)
		return Result{Done: n.bus(t1), Case: rr.Case}
	}
}

// Replace retires a clean-exclusive eviction: directory update only.
func (n *NUMA) Replace(t sim.Ticks, node int, pa uint64) {
	n.dir.Replace(pa, node)
}

// Write satisfies a write miss or upgrade.
func (n *NUMA) Write(t sim.Ticks, node int, pa uint64) Result {
	h := home(pa)
	wr := n.dir.Write(pa, h, node)
	t1 := n.bus(t)
	t1 = n.ctrl(t1)
	t1 = n.hop(t1, node, h, ReqBytes)
	t1 = n.ctrl(t1)
	var done sim.Ticks
	switch wr.Case {
	case proto.LocalDirtyRemote, proto.RemoteDirtyHome, proto.RemoteDirtyRemote:
		owner := wr.Owner
		t2 := n.hop(t1, h, owner, ReqBytes)
		t2 = n.ctrl(t2)
		t2 += n.lat.interv
		if !n.peers.Invalidate(owner, pa) {
			n.dir.NoteStaleInval()
		}
		done = n.hop(t2, owner, node, DataBytes)
	default:
		acks := t1
		for _, s := range wr.Invalidate {
			ti := n.hop(t1, h, s, ReqBytes)
			ti = n.ctrl(ti)
			if !n.peers.Invalidate(s, pa) {
				n.dir.NoteStaleInval()
			}
			ti = n.hop(ti, s, h, AckBytes)
			if ti > acks {
				acks = ti
			}
		}
		if wr.Case == proto.Upgrade {
			done = n.hop(acks, h, node, AckBytes)
			break
		}
		t2 := n.memory(t1, h, pa)
		if acks > t2 {
			t2 = acks
		}
		done = n.hop(t2, h, node, DataBytes)
	}
	done = n.ctrl(done)
	return Result{Done: n.bus(done), Case: wr.Case}
}

// Writeback retires a dirty eviction; it reserves the home memory bank
// but nothing else.
func (n *NUMA) Writeback(t sim.Ticks, node int, pa uint64) {
	h := home(pa)
	t1 := n.bus(t)
	t1 = n.hop(t1, node, h, DataBytes)
	n.memory(t1, h, pa)
	n.dir.Writeback(pa, node)
}
