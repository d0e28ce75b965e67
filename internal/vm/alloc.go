package vm

import "flashsim/internal/emitter"

// SequentialAllocator is the Solo policy: Solo "performs physical memory
// allocation itself" and "neglects the page-coloring algorithms used in
// modern operating systems". Frames are handed out sequentially per node
// in first-touch order, and — like the mmap-style arenas such simulators
// use — each region's *first* allocation is aligned to a way-size
// boundary, so on a uniprocessor every large array starts at page color
// zero.
//
// This reproduces both directions of the paper's findings: on one
// processor all of Ocean's grids share a color phase and thrash the
// two-way secondary cache (Solo predicted a ~3x higher L2 miss rate than
// SimOS), while on multiple processors only the first-touching node's
// chunk is aligned and the other nodes' portions drift to arbitrary
// phases, so the conflicts vanish (and for 16-processor Radix-Sort the
// drift actually *removes* conflicts that the real, virtually-colored
// IRIX layout has — "Solo does a better job of physical memory
// allocation than IRIX").
type SequentialAllocator struct {
	nodes int
	// alignPages is the way size in pages (= number of page colors);
	// region starts are rounded up to a multiple of it.
	alignPages uint32
	next       []uint32
	seen       map[string]bool
}

// NewSequentialAllocator returns a Solo-style allocator for an n-node
// machine whose secondary cache has the given number of page colors.
// Region starts align to half the way size (the arena-chunk granularity
// of the simulator's allocator), so large arrays land on one of two
// color phases — enough for three-array working sets to conflict in the
// two-way cache on a uniprocessor, without making every pair collide.
func NewSequentialAllocator(nodes int, colors uint32) *SequentialAllocator {
	if colors == 0 {
		colors = 1
	}
	align := colors / 2
	if align == 0 {
		align = 1
	}
	return &SequentialAllocator{
		nodes:      nodes,
		alignPages: align,
		next:       make([]uint32, nodes),
		seen:       make(map[string]bool),
	}
}

// Name identifies the policy.
func (a *SequentialAllocator) Name() string { return "solo-sequential" }

// Allocate hands out the next frame on the page's home node, aligning
// the node's counter on the region's first-ever touch.
func (a *SequentialAllocator) Allocate(vpage uint64, region emitter.Region, touchNode int) PhysPage {
	node := homeNode(vpage, region, touchNode, a.nodes)
	if !a.seen[region.Name] {
		a.seen[region.Name] = true
		if r := a.next[node] % a.alignPages; r != 0 {
			a.next[node] += a.alignPages - r
		}
	}
	f := a.next[node]
	a.next[node]++
	return PhysPage{Node: int32(node), Frame: f}
}

// ColorAllocator is the IRIX policy: virtual-address page coloring. The
// physical frame chosen for virtual page v has cache color v mod colors,
// so the virtual-address layout the application was tuned for (SPLASH-2
// codes pad their arrays with coloring OSes in mind) is preserved in the
// physically indexed secondary cache. Applications whose arrays are
// *not* phase-padded (Radix-Sort's two key arrays are an exact multiple
// of the way size apart) inherit real conflict misses — the ones "that
// are present on the hardware and in SimOS [but] absent in Solo".
type ColorAllocator struct {
	nodes  int
	colors uint32
	used   [][]uint32 // [node][color] frames handed out
}

// NewColorAllocator returns an IRIX-style virtual-coloring allocator.
// colors is the number of page colors of the secondary cache
// (waySize / PageSize).
func NewColorAllocator(nodes int, colors uint32) *ColorAllocator {
	if colors == 0 {
		colors = 1
	}
	a := &ColorAllocator{nodes: nodes, colors: colors}
	a.used = make([][]uint32, nodes)
	for i := range a.used {
		a.used[i] = make([]uint32, colors)
	}
	return a
}

// Name identifies the policy.
func (a *ColorAllocator) Name() string { return "irix-coloring" }

// Allocate picks the next free frame of color (vpage mod colors) on the
// page's home node. Frames of color c are c, c+colors, c+2*colors, ...
func (a *ColorAllocator) Allocate(vpage uint64, region emitter.Region, touchNode int) PhysPage {
	node := homeNode(vpage, region, touchNode, a.nodes)
	color := uint32(vpage % uint64(a.colors))
	idx := a.used[node][color]
	a.used[node][color]++
	return PhysPage{Node: int32(node), Frame: color + idx*a.colors}
}
