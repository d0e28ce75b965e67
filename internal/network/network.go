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

import "flashsim/internal/sim"

// Config describes the interconnect.
type Config struct {
	// Nodes is the node count; must be a power of two for a hypercube.
	Nodes int
	// HopTicks is the per-hop wire+switch latency (50 ns = 45 ticks).
	HopTicks sim.Ticks
	// RouterTicks is the additional per-router pass-through occupancy.
	RouterTicks sim.Ticks
	// TicksPerKByte expresses link bandwidth as serialization time per
	// 1024 bytes (FLASH's links are roughly 800 MB/s: ~1150 ticks/KB).
	TicksPerKByte sim.Ticks
	// ModelContention selects whether links and routers are reserved
	// (true for FlashLite/hardware, false for the NUMA model).
	ModelContention bool
}

// DefaultConfig returns the FLASH interconnect parameters.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		HopTicks:        sim.NS(50),
		RouterTicks:     sim.NS(25),
		TicksPerKByte:   2560, // ~400 MB/s effective per link
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
	if cfg.Nodes <= 0 {
		panic("network: need at least one node")
	}
	dims := 0
	for 1<<dims < cfg.Nodes {
		dims++
	}
	return &Network{
		cfg:     cfg,
		dims:    dims,
		links:   make([]sim.Server, dims<<dims),
		routers: make([]sim.Server, 1<<dims),
	}
}

// Stats returns accumulated traffic counters.
func (n *Network) Stats() NetStats { return n.stats }

// Lookahead returns the conservative lookahead horizon the interconnect
// guarantees: no message sent at time t can affect another node before
// t+Lookahead, because one hop costs at least HopTicks on the wire
// (50 ns = 45 ticks on FLASH). The windowed parallel engine derives its
// window width from this, so configuration changes keep it correct. A
// degenerate single-node network has no cross-node path; one hop is
// still the right floor (nothing crosses shards at all).
func (n *Network) Lookahead() sim.Ticks {
	la := n.cfg.HopTicks
	if la <= 0 {
		la = 1
	}
	return la
}

// Route returns the e-cube route from src to dst (excluding src,
// including dst).
func (n *Network) Route(src, dst int) []int {
	if src == dst {
		return nil
	}
	var hops []int
	cur := src
	diff := src ^ dst
	for d := 0; d < n.dims; d++ {
		bit := 1 << d
		if diff&bit != 0 {
			cur ^= bit
			hops = append(hops, cur)
		}
	}
	return hops
}

// Hops returns the hop count between src and dst (Hamming distance).
func (n *Network) Hops(src, dst int) int {
	h := 0
	for diff := src ^ dst; diff != 0; diff &= diff - 1 {
		h++
	}
	return h
}

// Send models transmitting size bytes from src to dst starting at time
// t. It returns the time the last byte arrives at dst. With contention
// modeling on, the message serializes over every directed link of its
// route and occupies each router; off, it experiences pure latency.
func (n *Network) Send(t sim.Ticks, src, dst int, size int) sim.Ticks {
	n.stats.Messages++
	n.stats.Bytes += uint64(size)
	if src == dst {
		return t
	}
	ser := sim.Ticks(uint64(size)*uint64(n.cfg.TicksPerKByte)/1024 + 1)
	now := t
	cur := src
	// The e-cube walk of Route, one dimension at a time.
	for d, diff := 0, src^dst; d < n.dims; d++ {
		if diff&(1<<d) == 0 {
			continue
		}
		n.stats.Hops++
		next := cur ^ 1<<d
		if n.cfg.ModelContention {
			_, done := n.links[cur*n.dims+d].Acquire(now, ser)
			now = done + n.cfg.HopTicks
			_, now = n.routers[next].Acquire(now, n.cfg.RouterTicks)
		} else {
			now += ser + n.cfg.HopTicks + n.cfg.RouterTicks
		}
		cur = next
	}
	return now
}
