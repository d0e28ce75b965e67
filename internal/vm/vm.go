// Package vm models virtual memory: page tables, NUMA page placement,
// and — critically for this study — the physical page *coloring* policy.
//
// The paper found that physical memory layout is a first-order
// performance effect: Solo, which performs its own physical allocation
// without the page-coloring algorithm IRIX uses, predicted a 3x higher
// secondary-cache miss rate for uniprocessor Ocean (conflicts IRIX
// avoids) yet a better layout than IRIX for 16-processor Radix-Sort
// (conflicts IRIX suffers under color-pool exhaustion). Both allocators
// are implemented here.
package vm

import (
	"fmt"

	"flashsim/internal/emitter"
)

// PageShift and PageSize define the 4 KB base page used throughout.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PhysPage identifies a physical page frame: the node whose memory holds
// it and the frame index within that node.
type PhysPage struct {
	Node  int32
	Frame uint32
}

// Addr composes a synthetic physical address: node in the high bits,
// frame+offset in the low bits. Cache indexing uses only the low bits,
// so conflict behavior is decided by Frame.
func (p PhysPage) Addr(offset uint64) uint64 {
	return uint64(p.Node)<<40 | uint64(p.Frame)<<PageShift | (offset & (PageSize - 1))
}

// NodeOf extracts the home node from a synthetic physical address.
func NodeOf(pa uint64) int { return int(pa >> 40) }

// VPage returns the virtual page number of a virtual address.
func VPage(va uint64) uint64 { return va >> PageShift }

// Allocator chooses a physical frame for a newly touched virtual page.
type Allocator interface {
	// Allocate maps vpage (belonging to region, first touched by node
	// touchNode) to a physical page.
	Allocate(vpage uint64, region emitter.Region, touchNode int) PhysPage
	// Name identifies the policy in reports.
	Name() string
}

// PageTable maps virtual pages to physical pages, populating lazily via
// an Allocator (first touch).
//
// Programs allocate their regions contiguously from a low base, so the
// table is a dense array over the address-space span — one load per
// translation on the critical path of every simulated memory access.
// Rare out-of-span addresses (synthetic stack/anon pages) fall back to
// a map.
type PageTable struct {
	nodes  int
	alloc  Allocator
	space  *emitter.AddressSpace
	dense  []PhysPage          // vp-indexed; Node < 0 means unmapped
	sparse map[uint64]PhysPage // vps at or beyond len(dense)
	mapped int
}

// densePageLimit caps the dense table at 8M entries (a 64 MB table
// spanning 32 GB of virtual space); anything beyond spills to the map.
const densePageLimit = 8 << 20

// NewPageTable creates an empty page table over the given address space.
func NewPageTable(space *emitter.AddressSpace, nodes int, alloc Allocator) *PageTable {
	npages := (space.Span() + PageSize - 1) >> PageShift
	if npages > densePageLimit {
		npages = densePageLimit
	}
	dense := make([]PhysPage, npages)
	for i := range dense {
		dense[i].Node = -1
	}
	return &PageTable{
		nodes:  nodes,
		alloc:  alloc,
		space:  space,
		dense:  dense,
		sparse: make(map[uint64]PhysPage),
	}
}

// Translate returns the physical address for va, faulting the page in on
// first touch (by touchNode). The second result reports whether this
// access caused the page to be mapped (a cold page fault).
func (pt *PageTable) Translate(va uint64, touchNode int) (PhysPage, bool) {
	vp := VPage(va)
	if vp < uint64(len(pt.dense)) {
		if p := pt.dense[vp]; p.Node >= 0 {
			return p, false
		}
	} else if p, ok := pt.sparse[vp]; ok {
		return p, false
	}
	return pt.fault(vp, va, touchNode)
}

// fault maps vp on first touch.
func (pt *PageTable) fault(vp, va uint64, touchNode int) (PhysPage, bool) {
	region, ok := pt.space.FindRegion(va)
	if !ok {
		// Stack/miscellaneous addresses outside named regions get a
		// synthetic local region.
		region = emitter.Region{Name: "anon", Base: va &^ (PageSize - 1), Size: PageSize,
			Place: emitter.Placement{Kind: emitter.PlaceFirstTouch}}
	}
	p := pt.alloc.Allocate(vp, region, touchNode)
	if int(p.Node) >= pt.nodes || p.Node < 0 {
		panic(fmt.Sprintf("vm: allocator %s placed page on node %d of %d", pt.alloc.Name(), p.Node, pt.nodes))
	}
	if vp < uint64(len(pt.dense)) {
		pt.dense[vp] = p
	} else {
		pt.sparse[vp] = p
	}
	pt.mapped++
	return p, true
}

// Lookup returns the mapping without faulting.
func (pt *PageTable) Lookup(va uint64) (PhysPage, bool) {
	vp := VPage(va)
	if vp < uint64(len(pt.dense)) {
		p := pt.dense[vp]
		return p, p.Node >= 0
	}
	p, ok := pt.sparse[vp]
	return p, ok
}

// Mapped returns the number of mapped pages.
func (pt *PageTable) Mapped() int { return pt.mapped }

// homeNode applies the region's placement policy.
func homeNode(vpage uint64, region emitter.Region, touchNode, nodes int) int {
	if nodes <= 1 {
		return 0
	}
	rel := vpage - VPage(region.Base)
	switch region.Place.Kind {
	case emitter.PlaceOnNode:
		n := region.Place.Node
		if n < 0 || n >= nodes {
			n = 0
		}
		return n
	case emitter.PlaceBlocked:
		stride := region.Place.Stride
		if stride < PageSize {
			stride = PageSize
		}
		block := (vpage*PageSize - (region.Base &^ (PageSize - 1))) / stride
		return int(block % uint64(nodes))
	case emitter.PlaceFirstTouch:
		return touchNode
	default: // PlaceInterleaved
		return int(rel % uint64(nodes))
	}
}
