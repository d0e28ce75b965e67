package vm

import (
	"testing"
	"testing/quick"

	"flashsim/internal/emitter"
)

func region(name string, basePage, pages uint64, place emitter.Placement) emitter.Region {
	return emitter.Region{Name: name, Base: basePage * PageSize, Size: pages * PageSize, Place: place}
}

func TestPhysPageAddr(t *testing.T) {
	p := PhysPage{Node: 3, Frame: 7}
	pa := p.Addr(0x123)
	if NodeOf(pa) != 3 {
		t.Fatalf("node = %d", NodeOf(pa))
	}
	if low := pa & (1<<40 - 1); low != 7*PageSize+0x123 {
		t.Fatalf("frame bits = %x", low)
	}
}

func TestVPage(t *testing.T) {
	if VPage(4096) != 1 || VPage(4095) != 0 || VPage(8192) != 2 {
		t.Fatal("vpage math")
	}
}

func TestHomeNodePlacements(t *testing.T) {
	const nodes = 4
	blocked := region("b", 100, 16, emitter.Placement{Kind: emitter.PlaceBlocked, Stride: 4 * PageSize})
	for vp := uint64(100); vp < 116; vp++ {
		want := int((vp - 100) / 4 % nodes)
		if got := homeNode(vp, blocked, 0, nodes); got != want {
			t.Errorf("blocked vp %d -> node %d, want %d", vp, got, want)
		}
	}
	onNode := region("o", 100, 4, emitter.Placement{Kind: emitter.PlaceOnNode, Node: 2})
	if got := homeNode(101, onNode, 0, nodes); got != 2 {
		t.Errorf("on-node -> %d", got)
	}
	ft := region("f", 100, 4, emitter.Placement{Kind: emitter.PlaceFirstTouch})
	if got := homeNode(101, ft, 3, nodes); got != 3 {
		t.Errorf("first-touch -> %d", got)
	}
	il := region("i", 100, 8, emitter.Placement{Kind: emitter.PlaceInterleaved})
	if got := homeNode(105, il, 0, nodes); got != 1 {
		t.Errorf("interleaved vp105 -> %d", got)
	}
	// Uniprocessor: always node 0.
	if got := homeNode(101, onNode, 0, 1); got != 0 {
		t.Errorf("uniproc -> %d", got)
	}
	// Out-of-range explicit node clamps to 0.
	bad := region("x", 0, 4, emitter.Placement{Kind: emitter.PlaceOnNode, Node: 99})
	if got := homeNode(1, bad, 0, nodes); got != 0 {
		t.Errorf("bad node -> %d", got)
	}
}

func TestSequentialAllocatorAlignsRegionStarts(t *testing.T) {
	const colors = 16
	a := NewSequentialAllocator(1, colors)
	r1 := region("grid0", 100, 34, emitter.Placement{})
	r2 := region("grid1", 134, 34, emitter.Placement{})
	p1 := a.Allocate(100, r1, 0)
	for vp := uint64(101); vp < 134; vp++ {
		a.Allocate(vp, r1, 0)
	}
	p2 := a.Allocate(134, r2, 0)
	align := colors / 2
	if p1.Frame%uint32(align) != 0 || p2.Frame%uint32(align) != 0 {
		t.Fatalf("region starts not aligned: %d %d", p1.Frame, p2.Frame)
	}
	if p2.Frame <= p1.Frame {
		t.Fatal("frames must advance")
	}
}

func TestSequentialAllocatorFramesUnique(t *testing.T) {
	a := NewSequentialAllocator(2, 16)
	seen := map[[2]uint32]bool{}
	r := region("r", 0, 64, emitter.Placement{Kind: emitter.PlaceFirstTouch})
	for vp := uint64(0); vp < 64; vp++ {
		p := a.Allocate(vp, r, int(vp%2))
		key := [2]uint32{uint32(p.Node), p.Frame}
		if seen[key] {
			t.Fatalf("frame reused: %v", key)
		}
		seen[key] = true
	}
}

func TestColorAllocatorVirtualColoring(t *testing.T) {
	const colors = 16
	a := NewColorAllocator(1, colors)
	r := region("r", 256, 64, emitter.Placement{})
	for vp := uint64(256); vp < 320; vp++ {
		p := a.Allocate(vp, r, 0)
		if p.Frame%colors != uint32(vp%colors) {
			t.Fatalf("vp %d got color %d, want %d", vp, p.Frame%colors, vp%colors)
		}
	}
}

func TestColorAllocatorFramesUniquePerNode(t *testing.T) {
	f := func(vps []uint16) bool {
		a := NewColorAllocator(1, 16)
		r := region("r", 0, 1<<16, emitter.Placement{})
		seen := map[uint32]bool{}
		for _, vp := range vps {
			p := a.Allocate(uint64(vp), r, 0)
			if seen[p.Frame] {
				return false
			}
			seen[p.Frame] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newSpace(t *testing.T) (*emitter.AddressSpace, emitter.Region) {
	t.Helper()
	as := emitter.NewAddressSpace()
	r := as.AllocPageAligned("data", 16*PageSize, emitter.Placement{Kind: emitter.PlaceFirstTouch})
	return as, r
}

func TestPageTableTranslateIdempotent(t *testing.T) {
	as, r := newSpace(t)
	pt := NewPageTable(as, 2, NewSequentialAllocator(2, 16))
	p1, cold1 := pt.Translate(r.Base+100, 1)
	p2, cold2 := pt.Translate(r.Base+200, 0) // same page, different toucher
	if !cold1 || cold2 {
		t.Fatalf("cold flags: %v %v", cold1, cold2)
	}
	if p1 != p2 {
		t.Fatalf("translation changed: %v vs %v", p1, p2)
	}
	if p1.Node != 1 {
		t.Fatalf("first-touch node = %d, want 1", p1.Node)
	}
	if pt.Mapped() != 1 {
		t.Fatalf("mapped=%d", pt.Mapped())
	}
}

func TestPageTableLookupWithoutFault(t *testing.T) {
	as, r := newSpace(t)
	pt := NewPageTable(as, 1, NewSequentialAllocator(1, 16))
	if _, ok := pt.Lookup(r.Base); ok {
		t.Fatal("lookup should miss before translate")
	}
	pt.Translate(r.Base, 0)
	if _, ok := pt.Lookup(r.Base); !ok {
		t.Fatal("lookup should hit after translate")
	}
}

func TestPageTableAnonPages(t *testing.T) {
	as, _ := newSpace(t)
	pt := NewPageTable(as, 2, NewSequentialAllocator(2, 16))
	// An address outside any region gets an anonymous first-touch page.
	p, cold := pt.Translate(0xDEAD0000, 1)
	if !cold || p.Node != 1 {
		t.Fatalf("anon page: %+v cold=%v", p, cold)
	}
}

// TestDistinctPagesDistinctFrames: translation is injective per node.
func TestDistinctPagesDistinctFrames(t *testing.T) {
	as := emitter.NewAddressSpace()
	r := as.AllocPageAligned("data", 256*PageSize, emitter.Placement{Kind: emitter.PlaceOnNode, Node: 0})
	for _, alloc := range []Allocator{
		NewSequentialAllocator(1, 16),
		NewColorAllocator(1, 16),
	} {
		pt := NewPageTable(as, 1, alloc)
		seen := map[uint32]uint64{}
		for vp := uint64(0); vp < 256; vp++ {
			va := r.Base + vp*PageSize
			p, _ := pt.Translate(va, 0)
			if prev, dup := seen[p.Frame]; dup {
				t.Fatalf("%s: frame %d shared by pages %d and %d", alloc.Name(), p.Frame, prev, vp)
			}
			seen[p.Frame] = vp
		}
	}
}
