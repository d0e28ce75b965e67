package emitter

import (
	"fmt"
	"sort"
)

// Well-known barrier ids delimiting the timed parallel section: the
// study reports "execution time for the parallel section of each
// application". Programs join BarrierStart once initialization is done
// and BarrierEnd when the timed phase completes; the machine records
// the release times. Application-internal barriers use ids >= 16.
const (
	BarrierStart uint32 = 1
	BarrierEnd   uint32 = 2
)

// Placement is a NUMA data-placement hint attached to a region by the
// workload, mirroring the explicit data placement the SPLASH-2 programs
// perform on FLASH ("multiprocessor versions perform data placement to
// minimize communication and coherence traffic").
type Placement struct {
	Kind PlacementKind
	// Node is the home node for PlaceOnNode.
	Node int
	// Stride is the bytes-per-node block size for PlaceBlocked.
	Stride uint64
}

// PlacementKind selects how a region's pages are distributed over nodes.
type PlacementKind uint8

const (
	// PlaceInterleaved round-robins pages across all nodes (default).
	PlaceInterleaved PlacementKind = iota
	// PlaceBlocked gives each node a contiguous Stride-byte chunk, in
	// node order, wrapping. This is the placement the tuned SPLASH-2
	// codes use: each processor's partition is local.
	PlaceBlocked
	// PlaceOnNode puts every page on a single node. With Node=0 this
	// is the "unplaced" hotspot configuration of Figure 7.
	PlaceOnNode
	// PlaceFirstTouch homes each page on the node that first touches
	// it.
	PlaceFirstTouch
)

// String names the placement kind.
func (k PlacementKind) String() string {
	switch k {
	case PlaceInterleaved:
		return "interleaved"
	case PlaceBlocked:
		return "blocked"
	case PlaceOnNode:
		return "on-node"
	case PlaceFirstTouch:
		return "first-touch"
	}
	return fmt.Sprintf("placement(%d)", uint8(k))
}

// Region is a named range of the program's virtual address space.
type Region struct {
	Name  string
	Base  uint64
	Size  uint64
	Place Placement
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// AddressSpace hands out virtual regions to a program during Setup. The
// base address starts above the zero page; region layout is entirely
// deterministic (allocations happen in Setup, before threads start).
type AddressSpace struct {
	next    uint64
	regions []Region
}

// NewAddressSpace returns an address space whose first region starts at
// 64 KB (leaving a guard at zero, like a real process image).
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: 1 << 16}
}

// Alloc carves out size bytes aligned to align (which must be a power of
// two; 0 means 64-byte alignment) with the given placement hint.
func (as *AddressSpace) Alloc(name string, size, align uint64, place Placement) Region {
	if size == 0 {
		panic("emitter: zero-size region " + name)
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("emitter: region %s alignment %d is not a power of two", name, align))
	}
	base := (as.next + align - 1) &^ (align - 1)
	r := Region{Name: name, Base: base, Size: size, Place: place}
	as.regions = append(as.regions, r)
	as.next = base + size
	return r
}

// AllocPageAligned is Alloc with 4 KB alignment, the common case for the
// large shared arrays.
func (as *AddressSpace) AllocPageAligned(name string, size uint64, place Placement) Region {
	return as.Alloc(name, size, 4096, place)
}

// Regions returns all allocated regions in address order.
func (as *AddressSpace) Regions() []Region {
	out := make([]Region, len(as.regions))
	copy(out, as.regions)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Span returns the highest allocated address (exclusive).
func (as *AddressSpace) Span() uint64 { return as.next }

// RestoreAddressSpace reconstructs an address space from a recorded
// layout (regions plus span), for replaying a captured trace: the OS
// model's page table needs FindRegion over the same regions the
// capture run allocated, without re-running the program's Setup.
func RestoreAddressSpace(regions []Region, span uint64) *AddressSpace {
	rs := make([]Region, len(regions))
	copy(rs, regions)
	return &AddressSpace{next: span, regions: rs}
}

// FindRegion returns the region containing addr, if any.
func (as *AddressSpace) FindRegion(addr uint64) (Region, bool) {
	for _, r := range as.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// Program is a complete workload: a deterministic Setup that lays out
// the address space and computes shared input data, and a Body run by
// every thread.
type Program struct {
	// Name identifies the workload ("fft", "radix", ...).
	Name string
	// Variant distinguishes parameterizations ("tlb-blocked",
	// "radix=256", "unplaced", ...). Informational.
	Variant string
	// Threads is the number of parallel threads (= processors used).
	Threads int
	// Setup lays out regions and builds shared state. It runs once,
	// single-threaded, before any Body starts.
	Setup func(as *AddressSpace) any
	// Body is the per-thread kernel; shared is Setup's return value.
	Body func(t *Thread, shared any)
	// Tap, when non-nil, mirrors every flushed instruction batch (trace
	// capture). It does not contribute to the program's identity:
	// FullName and the runner fingerprints ignore it, because the
	// emitted streams are byte-identical with or without a tap.
	Tap Tap
}

// Launch runs Setup and starts the emitter goroutines. It returns the
// address space (for the OS model to map) and the live streams.
func (p Program) Launch() (*AddressSpace, *Streams) {
	if p.Threads <= 0 {
		panic("emitter: program has no threads")
	}
	as := NewAddressSpace()
	var shared any
	if p.Setup != nil {
		shared = p.Setup(as)
	}
	s := Start(p.Threads, func(t *Thread) { p.Body(t, shared) }, p.Tap)
	return as, s
}

// FullName returns "name/variant" or just the name.
func (p Program) FullName() string {
	if p.Variant == "" {
		return p.Name
	}
	return p.Name + "/" + p.Variant
}
