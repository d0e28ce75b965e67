// Package cache implements the processor cache hierarchy state: set
// associative tag arrays with MESI-style line states, plus the small
// structures whose modeling fidelity the paper interrogates — the
// 4-entry write buffer, the 4-MSHR outstanding-miss file, and the
// secondary-cache interface whose occupancy the processor models
// initially failed to capture ("while data is being returned from the
// memory system ... the external cache interface is occupied for the
// entire duration of the cache-line transfer").
//
// The package is purely structural: timing decisions live in the
// processor and machine models, which ask the tag arrays what happened.
package cache

import (
	"fmt"

	"flashsim/internal/recycle"
)

// State is a cache-line coherence state.
type State uint8

const (
	// Invalid: not present.
	Invalid State = iota
	// Shared: present read-only; other caches may hold copies.
	Shared
	// Exclusive: present clean with no other copies; silently
	// upgradeable to Modified.
	Exclusive
	// Modified: present dirty; this cache owns the only copy.
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Config describes one cache level.
type Config struct {
	Name     string
	Size     uint64 // total bytes
	LineSize uint64 // bytes per line (power of two)
	Ways     int    // associativity
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.LineSize < 4 {
		// A line address needs two zero low bits to carry its state.
		return fmt.Errorf("cache %s: line size %d below 4 bytes", c.Name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d", c.Name, c.Ways)
	}
	if c.Size == 0 || c.Size%(c.LineSize*uint64(c.Ways)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.Size)
	}
	sets := c.Size / (c.LineSize * uint64(c.Ways))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() uint64 { return c.Size / (c.LineSize * uint64(c.Ways)) }

// WaySize returns the bytes covered by one way (Sets * LineSize); the
// number of page colors of this cache is WaySize/PageSize.
func (c Config) WaySize() uint64 { return c.Sets() * c.LineSize }

// LineAddr returns the line-aligned address of pa.
func (c Config) LineAddr(pa uint64) uint64 { return pa &^ (c.LineSize - 1) }

// line is one way of a set, 16 bytes: key packs the line address with
// its State in the two low bits, which a line address (LineSize >= 4)
// always has zero, and Invalid is 0. A valid copy of line address la is
// the one key with key^la in 1..3, so a probe is one compare.
type line struct {
	key uint64 // line address | State
	seq uint64 // recency stamp: larger = more recent
}

const stateBits = 3

func (ln *line) state() State { return State(ln.key & stateBits) }

func (ln *line) holds(la uint64) bool { return (ln.key^la)-1 < stateBits }

func (ln *line) setState(st State) { ln.key = ln.key&^stateBits | uint64(st) }

// Victim describes a line evicted by Insert.
type Victim struct {
	// Valid reports whether an eviction occurred.
	Valid bool
	// Addr is the victim's line address.
	Addr uint64
	// Dirty reports whether the victim requires a writeback.
	Dirty bool
	// State is the victim's pre-eviction state.
	State State
}

// Stats counts cache events.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Writebacks    uint64
	Invalidations uint64 // external invalidations received
	Interventions uint64 // external downgrades/forwards served
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Invalidations += o.Invalidations
	s.Interventions += o.Interventions
}

// Cache is a set-associative tag array with true-LRU replacement.
// The tag store is one flat ways-strided array — set lookup is a mask
// and a multiply, with no per-set slice header to chase on the probe
// path every simulated access takes.
type Cache struct {
	cfg   Config
	lines []line
	ways  int
	clock uint64
	stats Stats

	setMask   uint64
	lineShift uint
}

// New builds an empty cache. It panics on an invalid config (caught by
// Config.Validate), as cache geometry is fixed at machine construction.
func New(cfg Config) *Cache {
	c := new(Cache)
	c.Reset(cfg)
	return c
}

// Reset makes c the empty cache New(cfg) builds, in c's tag array when
// that is large enough.
func (c *Cache) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	lines := recycle.Zeroed(c.lines, int(nsets*uint64(cfg.Ways)))
	*c = Cache{cfg: cfg, lines: lines, ways: cfg.Ways, setMask: nsets - 1}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineShift++
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns accumulated event counts.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) set(pa uint64) []line {
	i := ((pa >> c.lineShift) & c.setMask) * uint64(c.ways)
	return c.lines[i : i+uint64(c.ways)]
}

// find returns the valid line holding pa, or nil.
func (c *Cache) find(pa uint64) *line {
	la := c.cfg.LineAddr(pa)
	set := c.set(pa)
	for i := range set {
		if set[i].holds(la) {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the state of the line containing pa (Invalid if not
// present) without updating recency.
func (c *Cache) Lookup(pa uint64) State {
	if ln := c.find(pa); ln != nil {
		return ln.state()
	}
	return Invalid
}

// Access performs a read (write=false) or write (write=true) probe. It
// returns the pre-access state and whether the access hit outright. A
// write to a Shared line is a miss for coherence purposes (an upgrade is
// required); a write to an Exclusive line silently transitions to
// Modified and hits.
func (c *Cache) Access(pa uint64, write bool) (st State, hit bool) {
	la := c.cfg.LineAddr(pa)
	set := c.set(pa)
	for i := range set {
		ln := &set[i]
		if !ln.holds(la) {
			continue
		}
		st = ln.state()
		if write {
			switch st {
			case Shared:
				// Upgrade needed: coherence miss.
				c.stats.Misses++
				return st, false
			case Exclusive:
				ln.setState(Modified)
			}
		}
		c.clock++
		ln.seq = c.clock
		c.stats.Hits++
		return st, true
	}
	c.stats.Misses++
	return Invalid, false
}

// Insert fills the line containing pa with the given state, evicting the
// LRU line of the set if necessary. If the line is already present its
// state is updated in place (upgrade completion).
func (c *Cache) Insert(pa uint64, st State) Victim {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	la := c.cfg.LineAddr(pa)
	set := c.set(pa)
	c.clock++
	victim := 0
	for i := range set {
		if set[i].holds(la) {
			// Present already (upgrade or refetch): update in place.
			set[i].setState(st)
			set[i].seq = c.clock
			return Victim{}
		}
		if set[victim].state() != Invalid && (set[i].state() == Invalid || set[i].seq < set[victim].seq) {
			victim = i
		}
	}
	v := Victim{}
	if old := set[victim].state(); old != Invalid {
		v = Victim{Valid: true, Addr: set[victim].key &^ stateBits, Dirty: old == Modified, State: old}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	set[victim] = line{key: la | uint64(st), seq: c.clock}
	return v
}

// MarkDirty transitions an existing line to Modified (used to propagate
// first-write dirtiness from an inner cache level). It reports whether
// the line was present.
func (c *Cache) MarkDirty(pa uint64) bool {
	ln := c.find(pa)
	if ln != nil {
		ln.setState(Modified)
	}
	return ln != nil
}

// Invalidate removes the line containing pa (external invalidation). It
// reports the state the line was in (Invalid if not present).
func (c *Cache) Invalidate(pa uint64) State {
	ln := c.find(pa)
	if ln == nil {
		return Invalid
	}
	st := ln.state()
	ln.setState(Invalid)
	c.stats.Invalidations++
	return st
}

// Downgrade transitions the line containing pa to Shared (external
// intervention for a remote read of a dirty/exclusive line). It reports
// the previous state.
func (c *Cache) Downgrade(pa uint64) State {
	ln := c.find(pa)
	if ln == nil {
		return Invalid
	}
	st := ln.state()
	if st == Modified || st == Exclusive {
		ln.setState(Shared)
		c.stats.Interventions++
	}
	return st
}

// Resident returns the number of valid lines (for tests).
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state() != Invalid {
			n++
		}
	}
	return n
}
