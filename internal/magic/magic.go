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

// MemConfig describes a node's main memory.
type MemConfig struct {
	// FirstWordTicks is access time to the first double-word
	// (Table 1: 140 ns).
	FirstWordTicks sim.Ticks
	// TransferTicks is the additional time to stream a full 128-byte
	// line out of DRAM.
	TransferTicks sim.Ticks
	// Banks is the number of independently contended banks per node.
	Banks int
}

// DefaultMemConfig returns the FLASH node memory parameters.
func DefaultMemConfig() MemConfig {
	return MemConfig{FirstWordTicks: sim.NS(140), TransferTicks: sim.NS(30), Banks: 4}
}

// Config describes one MAGIC instance.
type Config struct {
	// Clock is the system clock (75 MHz on FLASH).
	Clock sim.Clock
	// InboxTicks/OutboxTicks are interface pass-through latencies.
	InboxTicks  sim.Ticks
	OutboxTicks sim.Ticks
	// Table gives PP handler occupancies.
	Table OccupancyTable
	// ModelOccupancy selects whether the PP is a contended resource
	// (FlashLite/hardware) or handler time is pure latency (NUMA).
	ModelOccupancy bool
	// Mem is the node memory configuration.
	Mem MemConfig
}

// DefaultConfig returns the reference MAGIC configuration.
func DefaultConfig() Config {
	return Config{
		Clock:          sim.Clock75,
		InboxTicks:     sim.NS(20),
		OutboxTicks:    sim.NS(20),
		Table:          RTLOccupancies(),
		ModelOccupancy: true,
		Mem:            DefaultMemConfig(),
	}
}

// Controller is one node's MAGIC.
type Controller struct {
	cfg  Config
	pp   sim.Server
	dram *sim.Banks
}

// New creates a MAGIC instance.
func New(cfg Config) *Controller {
	banks := cfg.Mem.Banks
	if banks <= 0 {
		banks = 1
	}
	return &Controller{cfg: cfg, dram: sim.NewBanks(banks)}
}

// Inbox returns the time a message arriving at t has traversed the
// inbox.
func (c *Controller) Inbox(t sim.Ticks) sim.Ticks { return t + c.cfg.InboxTicks }

// Outbox returns the time a message handed off at t leaves the chip.
func (c *Controller) Outbox(t sim.Ticks) sim.Ticks { return t + c.cfg.OutboxTicks }

// RunHandler schedules handler h at time t with extraCycles of
// additional occupancy (e.g. per-sharer invalidation work). It returns
// the handler completion time. With occupancy modeling on, the PP is a
// FIFO resource and queueing delays accrue — the hotspot mechanism.
func (c *Controller) RunHandler(t sim.Ticks, h Handler, extraCycles uint32) sim.Ticks {
	cyc := uint64(c.cfg.Table[h] + extraCycles)
	dur := c.cfg.Clock.Cycles(cyc)
	if !c.cfg.ModelOccupancy {
		return t + dur
	}
	_, done := c.pp.Acquire(t, dur)
	return done
}

// Memory performs a DRAM access for the line at physical address pa
// starting at t; fullLine selects whether the whole 128-byte line is
// streamed (reads/writebacks) or only the critical word matters. It
// returns the data-ready time.
func (c *Controller) Memory(t sim.Ticks, pa uint64, fullLine bool) sim.Ticks {
	dur := c.cfg.Mem.FirstWordTicks
	if fullLine {
		dur += c.cfg.Mem.TransferTicks
	}
	_, done := c.dram.Acquire(pa>>7, t, dur)
	return done
}
