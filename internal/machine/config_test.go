package machine

import (
	"testing"

	"flashsim/internal/cache"
)

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := Base(4, true)
	good.Name = "ok"
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Procs = 0
	if bad.Validate() == nil {
		t.Error("zero procs accepted")
	}
	bad = good
	bad.Quantum = 0
	if bad.Validate() == nil {
		t.Error("zero quantum accepted")
	}
	bad = good
	bad.ClockMHz = 133
	if bad.Validate() == nil {
		t.Error("non-divisor clock accepted")
	}
	bad = good
	bad.L1D = cache.Config{Name: "L1D", Size: 1000, LineSize: 32, Ways: 2}
	if bad.Validate() == nil {
		t.Error("bad L1 accepted")
	}
	bad = good
	bad.L1D.LineSize = 256 // larger than the L2 line
	bad.L1D.Size = 8 << 10
	if bad.Validate() == nil {
		t.Error("L1 line larger than L2 line accepted")
	}
}

func TestColors(t *testing.T) {
	cfg := Base(1, true) // 128 KB, 2-way: way size 64 KB = 16 pages
	if cfg.Colors() != 16 {
		t.Fatalf("scaled colors %d, want 16", cfg.Colors())
	}
	full := Base(1, false) // 2 MB, 2-way: way size 1 MB = 256 pages
	if full.Colors() != 256 {
		t.Fatalf("full colors %d, want 256", full.Colors())
	}
}

func TestKindStrings(t *testing.T) {
	if CPUMipsy.String() != "mipsy" || CPUMXS.String() != "mxs" {
		t.Error("cpu kinds")
	}
	if MemFlashLite.String() != "flashlite" || MemNUMA.String() != "numa" {
		t.Error("mem kinds")
	}
}

func TestCacheGeometries(t *testing.T) {
	l1, l2 := FullScaleCaches()
	if l1.Size != 32<<10 || l2.Size != 2<<20 || l2.LineSize != 128 {
		t.Error("full scale")
	}
	s1, s2 := ScaledCaches()
	if s1.Size*16 != l1.Size*4 || s2.Size*16 != l2.Size {
		t.Errorf("scaled geometry: L1 %d L2 %d", s1.Size, s2.Size)
	}
	for _, c := range []cache.Config{l1, l2, s1, s2} {
		if err := c.Validate(); err != nil {
			t.Error(err)
		}
	}
}
