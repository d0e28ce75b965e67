// Package memsys provides the two memory-system simulators of the
// study behind one interface: FlashLite, the detailed model of MAGIC,
// the network, memory, and the coherence protocol ("it actually models
// everything in the FLASH system other than the main microprocessor and
// its caches"), and NUMA, the generic model "we might have used had we
// never designed and built real hardware" — latencies only, no
// controller occupancy, no network contention.
package memsys

import (
	"flashsim/internal/network"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
	"flashsim/internal/vm"
)

// Message sizes on the interconnect, in bytes.
const (
	// ReqBytes is a request/control message (header only).
	ReqBytes = 16
	// DataBytes is a data-carrying message (128-byte line + header).
	DataBytes = 144
	// AckBytes is an acknowledgement.
	AckBytes = 8
)

// Peers lets the memory system manipulate the processors' cache states
// for interventions and invalidations. The machine layer implements it.
type Peers interface {
	// Invalidate removes the line from node's hierarchy, returning
	// whether it was present.
	Invalidate(node int, lineAddr uint64) bool
	// Downgrade transitions the line to Shared in node's hierarchy,
	// returning whether it was present and whether it was dirty.
	Downgrade(node int, lineAddr uint64) (present, dirty bool)
}

// nopPeers is used until the machine registers real peers (and by unit
// tests that exercise timing only).
type nopPeers struct{}

func (nopPeers) Invalidate(int, uint64) bool        { return true }
func (nopPeers) Downgrade(int, uint64) (bool, bool) { return true, true }

// Result describes a completed coherence transaction.
type Result struct {
	// Done is the time the data (or ownership) is available at the
	// requesting node's processor pins.
	Done sim.Ticks
	// Case is the protocol case the transaction exercised.
	Case proto.Case
	// Exclusive reports a read was granted exclusively (install E).
	Exclusive bool
}

// System is a memory-system simulator: everything beyond the processor
// and its caches.
type System interface {
	// Name identifies the model ("flashlite", "numa").
	Name() string
	// Read satisfies a read miss for the line at physical address pa
	// from node, starting at time t.
	Read(t sim.Ticks, node int, pa uint64) Result
	// Write satisfies a write miss or upgrade.
	Write(t sim.Ticks, node int, pa uint64) Result
	// Writeback retires a dirty eviction (fire and forget).
	Writeback(t sim.Ticks, node int, pa uint64)
	// Replace retires a clean-exclusive eviction: a replacement hint
	// that updates the directory without a data transfer.
	Replace(t sim.Ticks, node int, pa uint64)
	// SetPeers registers the cache-intervention callbacks.
	SetPeers(p Peers)
	// Directory exposes protocol state (tests, statistics).
	Directory() *proto.Directory
	// Net exposes the interconnect (statistics); may be nil for
	// models without one.
	Net() *network.Network
}

// home returns the line's home node.
func home(pa uint64) int { return vm.NodeOf(pa) }
