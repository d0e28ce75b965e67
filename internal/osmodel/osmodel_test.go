package osmodel

import (
	"testing"

	"flashsim/internal/emitter"
	"flashsim/internal/vm"
)

func space() *emitter.AddressSpace {
	as := emitter.NewAddressSpace()
	as.AllocPageAligned("data", 256*vm.PageSize, emitter.Placement{Kind: emitter.PlaceFirstTouch})
	return as
}

func TestSoloTranslationsAreFree(t *testing.T) {
	as := space()
	pt := NewPageTable(Solo, as, 2, 16)
	os := New(DefaultSolo(), pt, 2)
	r := as.Regions()[0]
	tr := os.Translate(0, r.Base+100)
	if tr.PenaltyCycles != 0 || tr.TLBMiss {
		t.Fatalf("solo translation charged: %+v", tr)
	}
	if c := os.Counters(); c.PagesMapped != 1 || c.ColdFaults != 0 {
		t.Fatalf("first touch under Solo: %+v, want one page mapped and no fault charged", c)
	}
	if os.TLB(0) != nil {
		t.Fatal("solo has no TLB")
	}
	if os.SyscallCost(0, 1) != 0 {
		t.Fatal("solo syscalls are backdoors")
	}
	if os.TLBStats().Misses != 0 {
		t.Fatal("solo TLB misses")
	}
}

func TestSimOSChargesTLBAndFaults(t *testing.T) {
	as := space()
	cfg := DefaultSimOS()
	pt := NewPageTable(SimOS, as, 1, 16)
	os := New(cfg, pt, 1)
	r := as.Regions()[0]
	tr := os.Translate(0, r.Base)
	if !tr.TLBMiss || os.Counters().ColdFaults != 1 {
		t.Fatalf("first access: %+v, counters %+v", tr, os.Counters())
	}
	want := cfg.TLBHandlerCycles + cfg.PageFaultCycles
	if tr.PenaltyCycles != want {
		t.Fatalf("penalty %d, want %d", tr.PenaltyCycles, want)
	}
	// Second access: warm.
	tr2 := os.Translate(0, r.Base+8)
	if tr2.PenaltyCycles != 0 || tr2.TLBMiss || os.Counters().ColdFaults != 1 {
		t.Fatalf("warm access charged: %+v, counters %+v", tr2, os.Counters())
	}
	if os.SyscallCost(0, 1) != cfg.SyscallCycles {
		t.Fatal("syscall cost")
	}
	if os.TLBStats().Misses != 1 {
		t.Fatalf("tlb misses %d", os.TLBStats().Misses)
	}
}

func TestSimOSTLBThrash(t *testing.T) {
	as := emitter.NewAddressSpace()
	r := as.AllocPageAligned("big", 200*vm.PageSize, emitter.Placement{})
	cfg := DefaultSimOS()
	cfg.TLBEntries = 4
	pt := NewPageTable(SimOS, as, 1, 16)
	os := New(cfg, pt, 1)
	// Warm all pages (faults out of the way).
	for p := uint64(0); p < 8; p++ {
		os.Translate(0, r.Base+p*vm.PageSize)
	}
	before := os.TLBStats().Misses
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 8; p++ {
			os.Translate(0, r.Base+p*vm.PageSize)
		}
	}
	if got := os.TLBStats().Misses - before; got != 24 {
		t.Fatalf("cycling 8 pages through a 4-entry TLB: %d misses, want 24", got)
	}
}

func TestAllocatorSelection(t *testing.T) {
	if Allocator(Solo, 2, 16).Name() != "solo-sequential" {
		t.Fatal("solo allocator")
	}
	if Allocator(SimOS, 2, 16).Name() != "irix-coloring" {
		t.Fatal("simos allocator")
	}
}

func TestPerCPUTLBs(t *testing.T) {
	as := space()
	pt := NewPageTable(SimOS, as, 2, 16)
	os := New(DefaultSimOS(), pt, 2)
	r := as.Regions()[0]
	os.Translate(0, r.Base)
	// CPU 1 misses independently even though the page is mapped.
	tr := os.Translate(1, r.Base)
	if !tr.TLBMiss {
		t.Fatal("TLBs must be per CPU")
	}
	if c := os.Counters(); c.ColdFaults != 1 || tr.PenaltyCycles != DefaultSimOS().TLBHandlerCycles {
		t.Fatalf("second CPU's touch of a mapped page: %+v, counters %+v; want a refill only", tr, c)
	}
}

func TestKindString(t *testing.T) {
	if Solo.String() != "solo" || SimOS.String() != "simos" {
		t.Fatal("kind names")
	}
}
