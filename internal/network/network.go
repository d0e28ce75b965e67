// Package network models the FLASH interconnect: a hypercube of
// point-to-point links with 50 ns per-hop latency (Table 1), e-cube
// (dimension-ordered) routing, and — when contention modeling is enabled
// — serialization of messages over each directed link and occupancy of
// each router.
//
// The NUMA memory-system model uses this package with contention
// disabled ("it does not model contention in the network or the
// routers"); FlashLite and the hardware reference enable it.
package network

import (
	"math/bits"

	"flashsim/internal/recycle"
	"flashsim/internal/sim"
)

// Config describes the interconnect.
type Config struct {
	// Nodes is the node count; must be a power of two for a hypercube.
	Nodes int
	// HopTicks is the per-hop wire+switch latency (50 ns = 45 ticks).
	HopTicks sim.Ticks
	// RouterTicks is the additional per-router pass-through occupancy.
	RouterTicks sim.Ticks
	// ModelContention selects whether links and routers are reserved
	// (true for FlashLite/hardware, false for the NUMA model).
	ModelContention bool
}

// ticksPerKByte is a link's serialization time per 1024 bytes: 2560
// ticks (2.84 us) per KB, about 360 MB/s per link.
const ticksPerKByte = 2560

// DefaultConfig returns the FLASH interconnect parameters.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		HopTicks:        sim.NS(50),
		RouterTicks:     sim.NS(25),
		ModelContention: true,
	}
}

// Network is the interconnect instance.
type Network struct {
	cfg  Config
	dims int
	// links holds every directed link of the cube: the link leaving
	// node a along dimension d (to node a^(1<<d)) is links[a*dims+d].
	links   []sim.Server
	routers []sim.Server
	stats   NetStats
}

// NetStats counts network activity.
type NetStats struct {
	Messages uint64
	Bytes    uint64
	Hops     uint64
}

// Add accumulates o into s.
func (s *NetStats) Add(o NetStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Hops += o.Hops
}

// New builds the interconnect. Node counts that are not powers of two
// are rounded up to the enclosing hypercube (FLASH configures partial
// cubes the same way).
func New(cfg Config) *Network {
	n := new(Network)
	n.Reset(cfg)
	return n
}

// Reset makes n the idle interconnect New(cfg) builds, in n's link and
// router arrays when they are large enough.
func (n *Network) Reset(cfg Config) {
	if cfg.Nodes <= 0 {
		panic("network: need at least one node")
	}
	dims := 0
	for 1<<dims < cfg.Nodes {
		dims++
	}
	*n = Network{
		cfg:     cfg,
		dims:    dims,
		links:   recycle.Zeroed(n.links, dims<<dims),
		routers: recycle.Zeroed(n.routers, 1<<dims),
	}
}

// Stats returns accumulated traffic counters.
func (n *Network) Stats() NetStats { return n.stats }

// Lookahead returns the conservative lookahead horizon the interconnect
// guarantees: no message sent at time t can affect another node before
// t+Lookahead, because one hop costs at least HopTicks on the wire
// (50 ns = 45 ticks on FLASH). The windowed engine derives its window
// width from this, so configuration changes keep it correct. A
// degenerate single-node network has no cross-node path; one hop is
// still the right floor.
func (n *Network) Lookahead() sim.Ticks {
	la := n.cfg.HopTicks
	if la <= 0 {
		la = 1
	}
	return la
}

// Route returns the e-cube route from src to dst (excluding src,
// including dst): the dimensions src^dst crosses, lowest first.
func (n *Network) Route(src, dst int) []int {
	var hops []int
	cur := src
	for diff := src ^ dst; diff != 0; diff &= diff - 1 {
		cur ^= diff & -diff
		hops = append(hops, cur)
	}
	return hops
}

// Hops returns the hop count between src and dst (Hamming distance).
func (n *Network) Hops(src, dst int) int { return bits.OnesCount(uint(src ^ dst)) }

// Send models transmitting size bytes from src to dst starting at time
// t. It returns the time the last byte arrives at dst. With contention
// modeling on, the message serializes over every directed link of its
// route and occupies each router; off, it experiences pure latency.
func (n *Network) Send(t sim.Ticks, src, dst int, size int) sim.Ticks {
	diff := src ^ dst
	hops := bits.OnesCount(uint(diff))
	n.stats.Messages++
	n.stats.Bytes += uint64(size)
	n.stats.Hops += uint64(hops)
	ser := sim.Ticks(uint64(size)*ticksPerKByte/1024 + 1)
	if !n.cfg.ModelContention {
		return t + sim.Ticks(hops)*(ser+n.cfg.HopTicks+n.cfg.RouterTicks)
	}
	// The e-cube walk of Route, one crossed dimension at a time.
	now, cur := t, src
	for ; diff != 0; diff &= diff - 1 {
		d := bits.TrailingZeros(uint(diff))
		_, done := n.links[cur*n.dims+d].Acquire(now, ser)
		cur ^= 1 << d
		_, now = n.routers[cur].Acquire(done+n.cfg.HopTicks, n.cfg.RouterTicks)
	}
	return now
}
