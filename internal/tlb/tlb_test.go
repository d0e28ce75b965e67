package tlb

import (
	"testing"
	"testing/quick"
)

func small() *TLB { return New(Config{Entries: 4}) }

func TestHitAfterMiss(t *testing.T) {
	tl := small()
	if tl.Access(1) {
		t.Fatal("first access should miss")
	}
	if !tl.Access(1) {
		t.Fatal("second access should hit")
	}
	if tl.Stats().Hits != 1 || tl.Stats().Misses != 1 {
		t.Fatalf("hits=%d misses=%d", tl.Stats().Hits, tl.Stats().Misses)
	}
}

func TestCapacityEviction(t *testing.T) {
	tl := small()
	for vp := uint64(0); vp < 4; vp++ {
		tl.Access(vp)
	}
	tl.Access(4) // evicts LRU = 0
	if tl.Probe(0) {
		t.Fatal("page 0 should have been evicted")
	}
	for vp := uint64(1); vp <= 4; vp++ {
		if !tl.Probe(vp) {
			t.Fatalf("page %d should be resident", vp)
		}
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	tl := small()
	for vp := uint64(0); vp < 4; vp++ {
		tl.Access(vp)
	}
	tl.Access(0) // refresh 0; LRU is now 1
	tl.Access(9)
	if tl.Probe(1) {
		t.Fatal("page 1 should have been evicted")
	}
	if !tl.Probe(0) {
		t.Fatal("page 0 was refreshed and must stay")
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// Cycling over entries+1 pages with LRU must miss every time —
	// the FFT/Radix pathology.
	tl := small()
	for round := 0; round < 3; round++ {
		for vp := uint64(0); vp < 5; vp++ {
			tl.Access(vp)
		}
	}
	if tl.Stats().Hits != 0 {
		t.Fatalf("LRU cycling should never hit: hits=%d", tl.Stats().Hits)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	tl := small()
	tl.Access(1)
	h, m := tl.Stats().Hits, tl.Stats().Misses
	tl.Probe(1)
	tl.Probe(2)
	if tl.Stats().Hits != h || tl.Stats().Misses != m {
		t.Fatal("probe changed counters")
	}
}

func TestR10000Config(t *testing.T) {
	c := R10000()
	if c.Entries != 64 {
		t.Fatalf("R10000 config %+v", c)
	}
}

func TestNewRejectsZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

// TestResidencyBoundProperty: residency never exceeds capacity, and a
// just-accessed page is always resident.
func TestResidencyBoundProperty(t *testing.T) {
	f := func(pages []uint8) bool {
		tl := New(Config{Entries: 8})
		for _, p := range pages {
			tl.Access(uint64(p))
			if tl.Resident() > 8 {
				return false
			}
			if !tl.Probe(uint64(p)) {
				return false
			}
		}
		return tl.Stats().Hits+tl.Stats().Misses == uint64(len(pages))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
