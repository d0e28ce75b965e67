package memsys

import (
	"flashsim/internal/magic"
	"flashsim/internal/network"
	"flashsim/internal/proto"
	"flashsim/internal/recycle"
	"flashsim/internal/sim"
)

// FlashTiming holds the FlashLite timing constants the paper's tuning
// pass adjusted: "our simulator tuning consisted of ... changing
// FlashLite bus timing ..., adjusting the latency through the network
// router, and tuning the latencies from the network to the node
// controller and vice-versa." InterventionNS is the cost of pulling a
// dirty line out of an owning processor's cache (all data must pass
// through the R10000 to reach its secondary cache).
type FlashTiming struct {
	BusRequestNS   float64 // processor -> MAGIC
	BusReplyNS     float64 // MAGIC -> processor
	RouterNS       float64 // per-router pass-through
	InboxNS        float64 // network -> MAGIC
	OutboxNS       float64 // MAGIC -> network
	InterventionNS float64 // dirty-line extraction at the owner CPU
}

// TrueTiming returns the timing of the as-built hardware. The hardware
// reference model uses these values; the Calibrator recovers them.
func TrueTiming() FlashTiming {
	return FlashTiming{
		BusRequestNS:   35,
		BusReplyNS:     35,
		RouterNS:       25,
		InboxNS:        60,
		OutboxNS:       60,
		InterventionNS: 690,
	}
}

// DesignTiming returns FlashLite's pre-silicon estimates: bus, router,
// and interface latencies slightly optimistic, intervention cost
// pessimistic. This yields the untuned column of Table 3 (fast on the
// two-hop cases, slow on the three-hop dirty-remote case).
func DesignTiming() FlashTiming {
	return FlashTiming{
		BusRequestNS:   35,
		BusReplyNS:     35,
		RouterNS:       12,
		InboxNS:        40,
		OutboxNS:       40,
		InterventionNS: 1050,
	}
}

// FlashConfig configures a FlashLite instance. The interconnect is
// FLASH's (network.DefaultConfig) with Timing's router latency.
type FlashConfig struct {
	Nodes  int
	Timing FlashTiming
	// Occupancy is every node's MAGIC handler occupancy table.
	Occupancy magic.OccupancyTable
}

// DefaultFlashConfig returns the detailed model at the given node count
// with the supplied timing constants.
func DefaultFlashConfig(nodes int, t FlashTiming) FlashConfig {
	return FlashConfig{Nodes: nodes, Timing: t, Occupancy: magic.RTLOccupancies()}
}

// FlashLite is the detailed memory-system simulator: a multi-threaded
// model of the memory bus, MAGIC, network, memory, and the coherence
// protocol, with PP occupancy and network contention.
type FlashLite struct {
	// lat holds the Timing latencies in ticks, converted once by Reset.
	lat   struct{ busReq, busRep, interv, outbox, inbox sim.Ticks }
	ctrl  []*magic.Controller
	net   network.Network
	dir   proto.Directory
	peers Peers
}

// NewFlashLite builds the model.
func NewFlashLite(cfg FlashConfig) *FlashLite {
	f := new(FlashLite)
	f.Reset(cfg)
	return f
}

// Reset makes f the idle model NewFlashLite(cfg) builds, in f's
// directory, interconnect and controllers.
func (f *FlashLite) Reset(cfg FlashConfig) {
	tm := cfg.Timing
	net := network.DefaultConfig(cfg.Nodes)
	net.RouterTicks = sim.NS(tm.RouterNS)
	f.peers = nopPeers{}
	f.lat.busReq, f.lat.busRep, f.lat.interv = sim.NS(tm.BusRequestNS), sim.NS(tm.BusReplyNS), sim.NS(tm.InterventionNS)
	f.lat.outbox, f.lat.inbox = sim.NS(tm.OutboxNS), sim.NS(tm.InboxNS)
	f.net.Reset(net)
	f.dir.Reset(cfg.Nodes)
	f.ctrl = recycle.Renew(f.ctrl, cfg.Nodes, func(c *magic.Controller) { c.Reset(magic.Config{Table: cfg.Occupancy}) })
}

// Name identifies the model.
func (f *FlashLite) Name() string { return "flashlite" }

// SetPeers registers cache-intervention callbacks.
func (f *FlashLite) SetPeers(p Peers) { f.peers = p }

// Directory exposes the protocol directory.
func (f *FlashLite) Directory() *proto.Directory { return &f.dir }

// Net exposes the interconnect.
func (f *FlashLite) Net() *network.Network { return &f.net }

func (f *FlashLite) busReq(t sim.Ticks) sim.Ticks { return t + f.lat.busReq }
func (f *FlashLite) busRep(t sim.Ticks) sim.Ticks { return t + f.lat.busRep }
func (f *FlashLite) interv(t sim.Ticks) sim.Ticks { return t + f.lat.interv }

// send moves a message from node a's MAGIC to node b's MAGIC (outbox,
// network, inbox). a == b is a local hand-off with no network traversal.
func (f *FlashLite) send(t sim.Ticks, a, b, size int) sim.Ticks {
	if a == b {
		return t
	}
	return f.net.Send(t+f.lat.outbox, a, b, size) + f.lat.inbox
}

// Read satisfies a read miss.
func (f *FlashLite) Read(t sim.Ticks, node int, pa uint64) Result {
	h := home(pa)
	line := pa
	// Processor interface at the requester.
	t1 := f.busReq(t)
	if node == h {
		t1 = f.ctrl[node].RunHandler(t1, magic.HPILocalGet, 0)
	} else {
		t1 = f.ctrl[node].RunHandler(t1, magic.HPIRemoteGet, 0)
		t1 = f.send(t1, node, h, ReqBytes)
	}
	rr := f.dir.Read(line, h, node)
	var dataAtReq sim.Ticks
	switch rr.Case {
	case proto.LocalClean, proto.RemoteClean:
		t2 := f.ctrl[h].RunHandler(t1, magic.HNILocalGet, 0)
		t2 = f.ctrl[h].Memory(t2, pa, true)
		dataAtReq = f.send(t2, h, node, DataBytes)
	default:
		// Dirty somewhere: forward to owner.
		owner := rr.Owner
		t2 := f.ctrl[h].RunHandler(t1, magic.HNIGetFwd, 0)
		t2 = f.send(t2, h, owner, ReqBytes)
		t2 = f.ctrl[owner].RunHandler(t2, magic.HNIOwnerGet, 0)
		t2 = f.interv(t2)
		f.peers.Downgrade(owner, line)
		if h == node {
			// Home is the requester: the owner's reply carries both
			// the data and the sharing writeback in one message.
			dataAtReq = f.send(t2, owner, node, DataBytes)
			f.ctrl[h].Memory(dataAtReq, pa, true)
		} else {
			// Owner replies with data to the requester and sends a
			// sharing writeback to home (the writeback proceeds in
			// the background but consumes home PP occupancy and
			// bandwidth).
			wb := f.send(t2, owner, h, DataBytes)
			f.ctrl[h].RunHandler(wb, magic.HNIWriteback, 0)
			f.ctrl[h].Memory(wb, pa, true)
			dataAtReq = f.send(t2, owner, node, DataBytes)
		}
	}
	if node != h || rr.Case == proto.LocalDirtyRemote {
		dataAtReq = f.ctrl[node].RunHandler(dataAtReq, magic.HNIPut, 0)
	}
	done := f.busRep(dataAtReq)
	return Result{Done: done, Case: rr.Case, Exclusive: rr.Exclusive}
}

// Write satisfies a write miss or upgrade.
func (f *FlashLite) Write(t sim.Ticks, node int, pa uint64) Result {
	h := home(pa)
	line := pa
	t1 := f.busReq(t)
	if node == h {
		t1 = f.ctrl[node].RunHandler(t1, magic.HPIGetX, 0)
	} else {
		t1 = f.ctrl[node].RunHandler(t1, magic.HPIGetX, 0)
		t1 = f.send(t1, node, h, ReqBytes)
	}
	wr := f.dir.Write(line, h, node)
	var dataAtReq sim.Ticks
	switch wr.Case {
	case proto.LocalDirtyRemote, proto.RemoteDirtyHome, proto.RemoteDirtyRemote:
		// Ownership transfer: the fetch from the previous owner is
		// itself the invalidation; no separate invalidation fan-out.
		owner := wr.Owner
		t2 := f.ctrl[h].RunHandler(t1, magic.HNIGetFwd, 0)
		t2 = f.send(t2, h, owner, ReqBytes)
		t2 = f.ctrl[owner].RunHandler(t2, magic.HNIOwnerGet, 0)
		t2 = f.interv(t2)
		if !f.peers.Invalidate(owner, line) {
			f.dir.NoteStaleInval()
		}
		dataAtReq = f.send(t2, owner, node, DataBytes)
	default:
		// Clean at home (possibly with sharers) or upgrade:
		// invalidations fan out from home; each occupies the home PP,
		// a network leg, and the sharer's PP, then acks return home.
		acksDone := t1
		for _, s := range wr.Invalidate {
			ti := f.ctrl[h].RunHandler(t1, magic.HNIGetX, 0)
			ti = f.send(ti, h, s, ReqBytes)
			ti = f.ctrl[s].RunHandler(ti, magic.HNIInval, 0)
			if !f.peers.Invalidate(s, line) {
				f.dir.NoteStaleInval()
			}
			ti = f.send(ti, s, h, AckBytes)
			ti = f.ctrl[h].RunHandler(ti, magic.HNIInvalAck, 0)
			if ti > acksDone {
				acksDone = ti
			}
		}
		if wr.Case == proto.Upgrade {
			// Ownership grant after all acks; no data transfer.
			dataAtReq = f.send(acksDone, h, node, AckBytes)
			break
		}
		t2 := f.ctrl[h].RunHandler(t1, magic.HNIGetX, 0)
		t2 = f.ctrl[h].Memory(t2, pa, true)
		t2 = f.send(t2, h, node, DataBytes)
		if acksDone > t2 {
			t2 = acksDone
		}
		dataAtReq = t2
	}
	if node != h {
		dataAtReq = f.ctrl[node].RunHandler(dataAtReq, magic.HNIPut, 0)
	}
	done := f.busRep(dataAtReq)
	return Result{Done: done, Case: wr.Case}
}

// Writeback retires a dirty eviction. The processor does not wait, but
// the writeback consumes bus, network, PP, and memory resources.
func (f *FlashLite) Writeback(t sim.Ticks, node int, pa uint64) {
	h := home(pa)
	t1 := f.busReq(t)
	t1 = f.ctrl[node].RunHandler(t1, magic.HPILocalGet, 0)
	t1 = f.send(t1, node, h, DataBytes)
	t1 = f.ctrl[h].RunHandler(t1, magic.HNIWriteback, 0)
	f.ctrl[h].Memory(t1, pa, true)
	f.dir.Writeback(pa, node)
}

// Replace retires a clean-exclusive eviction: a header-only replacement
// hint to the home directory, with no data transfer or memory write.
func (f *FlashLite) Replace(t sim.Ticks, node int, pa uint64) {
	h := home(pa)
	t1 := f.busReq(t)
	t1 = f.ctrl[node].RunHandler(t1, magic.HPILocalGet, 0)
	t1 = f.send(t1, node, h, ReqBytes)
	f.ctrl[h].RunHandler(t1, magic.HNIInvalAck, 0)
	f.dir.Replace(pa, node)
}
