// Package magic models the MAGIC programmable node controller: the
// embedded protocol processor (PP) whose handler occupancy FlashLite
// emulates cycle-accurately, the inbox/outbox interfaces, and the memory
// interface. MAGIC runs at the 75 MHz system clock (Table 1).
//
// Handler occupancies play the role of the latencies "extracted directly
// from the Verilog RTL design" in the real FlashLite: every protocol
// message that arrives at a node occupies the PP for a handler-specific
// number of system cycles, and that occupancy — not just latency — is
// what the generic NUMA model omits ("it does not model occupancy of the
// directory controller beyond the normal latency path"), which is why
// NUMA mispredicts the unplaced Radix-Sort hotspot by 31% (Figure 7).
package magic

import "flashsim/internal/sim"

// Handler identifies a protocol handler running on the PP.
type Handler uint8

const (
	// HPILocalGet: processor interface issues a local read request.
	HPILocalGet Handler = iota
	// HPIRemoteGet: processor interface issues a remote read request
	// (encapsulate and hand to the network interface).
	HPIRemoteGet
	// HNILocalGet: home-side read handler, memory clean.
	HNILocalGet
	// HNIGetFwd: home-side read handler that must forward to a dirty
	// owner (sets transient state, sends intervention).
	HNIGetFwd
	// HNIOwnerGet: intervention handler at the dirty owner (pulls the
	// line from the owner's cache, replies, writes back to home).
	HNIOwnerGet
	// HNIPut: reply handler at the requester (deliver data to the
	// processor interface).
	HNIPut
	// HPIGetX: processor interface issues a write/ownership request.
	HPIGetX
	// HNIGetX: home-side write handler (collect sharers, send
	// invalidations, reply with data and ownership).
	HNIGetX
	// HNIInval: invalidation handler at a sharer.
	HNIInval
	// HNIInvalAck: invalidation-acknowledgement collection at home.
	HNIInvalAck
	// HNIWriteback: dirty-eviction writeback handler at home.
	HNIWriteback
	// HNIUncached: uncached/IO operation handler.
	HNIUncached
	// NumHandlers is the handler count.
	NumHandlers
)

var handlerNames = [NumHandlers]string{
	"pi-local-get", "pi-remote-get", "ni-local-get", "ni-get-fwd",
	"ni-owner-get", "ni-put", "pi-getx", "ni-getx", "ni-inval",
	"ni-inval-ack", "ni-writeback", "ni-uncached",
}

// String names the handler.
func (h Handler) String() string {
	if int(h) < len(handlerNames) {
		return handlerNames[h]
	}
	return "handler(?)"
}

// OccupancyTable gives each handler's PP occupancy in 75 MHz system
// cycles. These numbers stand in for the Verilog-extracted latencies of
// the real FlashLite.
type OccupancyTable [NumHandlers]uint32

// RTLOccupancies returns the reference occupancy table used by the
// hardware model and by tuned FlashLite.
func RTLOccupancies() OccupancyTable {
	var t OccupancyTable
	t[HPILocalGet] = 3
	t[HPIRemoteGet] = 4
	t[HNILocalGet] = 6
	t[HNIGetFwd] = 12
	t[HNIOwnerGet] = 14
	t[HNIPut] = 6
	t[HPIGetX] = 5
	t[HNIGetX] = 10
	t[HNIInval] = 6
	t[HNIInvalAck] = 4
	t[HNIWriteback] = 8
	t[HNIUncached] = 20
	return t
}

// A node's main memory: memBanks independently contended banks,
// 140 ns to the first double-word (Table 1) and 30 ns more to stream
// the rest of a 128-byte line.
const memBanks = 4

var firstWordTicks, lineTransferTicks = sim.NS(140), sim.NS(30)

// Config describes one MAGIC instance. Its inbox and outbox crossings
// are memsys.FlashTiming's, which the calibration tunes.
type Config struct {
	// Table gives PP handler occupancies.
	Table OccupancyTable
}

// DefaultConfig returns the reference MAGIC configuration.
func DefaultConfig() Config {
	return Config{Table: RTLOccupancies()}
}

// Controller is one node's MAGIC.
type Controller struct {
	cfg  Config
	pp   sim.Server
	dram sim.Banks
}

// New creates a MAGIC instance.
func New(cfg Config) *Controller {
	c := new(Controller)
	c.Reset(cfg)
	return c
}

// Reset makes c the idle controller New(cfg) creates, in c's DRAM banks.
func (c *Controller) Reset(cfg Config) {
	dram := c.dram
	dram.Reset(memBanks)
	*c = Controller{cfg: cfg, dram: dram}
}

// RunHandler schedules handler h at time t with extraCycles of
// additional occupancy (e.g. per-sharer invalidation work). It returns
// the handler completion time. The PP is a FIFO resource, so queueing
// delays accrue — the hotspot mechanism.
func (c *Controller) RunHandler(t sim.Ticks, h Handler, extraCycles uint32) sim.Ticks {
	_, done := c.pp.Acquire(t, sim.Clock75.Cycles(uint64(c.cfg.Table[h]+extraCycles)))
	return done
}

// Memory performs a DRAM access for the line at physical address pa
// starting at t; fullLine selects whether the whole 128-byte line is
// streamed (reads/writebacks) or only the critical word matters. It
// returns the data-ready time.
func (c *Controller) Memory(t sim.Ticks, pa uint64, fullLine bool) sim.Ticks {
	dur := firstWordTicks
	if fullLine {
		dur += lineTransferTicks
	}
	_, done := c.dram.Acquire(pa>>7, t, dur)
	return done
}
