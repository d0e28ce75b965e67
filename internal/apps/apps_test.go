package apps_test

import (
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
)

// quickCfg returns a small, fast machine for app integration tests.
func quickCfg(procs int, kind osmodel.Kind) machine.Config {
	cfg := machine.Base(procs, true)
	cfg.Name = "apps-test"
	cfg.CPU = machine.CPUMipsy
	cfg.ClockMHz = 150
	if kind == osmodel.SimOS {
		cfg.OS = osmodel.DefaultSimOS()
	} else {
		cfg.OS = osmodel.DefaultSolo()
	}
	cfg.Mem = machine.MemFlashLite
	cfg.FlashTiming = memsys.TrueTiming()
	return cfg
}

// countOps tallies instruction kinds in a program's streams. Readers
// are drained concurrently: drained one after another, the first thread
// would run the others through every barrier it passes and their whole
// streams would wait in memory.
func countOps(t *testing.T, prog emitter.Program) map[isa.Op]uint64 {
	t.Helper()
	_, streams := prog.Launch()
	defer streams.Abort()
	partial := make([]map[isa.Op]uint64, len(streams.Readers))
	done := make(chan int)
	for i, r := range streams.Readers {
		i, r := i, r
		partial[i] = make(map[isa.Op]uint64)
		go func() {
			defer func() { done <- i }()
			for {
				in, ok := r.Next()
				if !ok {
					return
				}
				partial[i][in.Op]++
			}
		}()
	}
	for range streams.Readers {
		<-done
	}
	streams.Wait()
	if err := streams.Err(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[isa.Op]uint64)
	for _, p := range partial {
		for op, n := range p {
			counts[op] += n
		}
	}
	return counts
}

func TestFFTStreamShape(t *testing.T) {
	c := countOps(t, apps.FFT(apps.FFTOpts{LogN: 10, Procs: 2, Prefetch: true}))
	if c[isa.FPMul] == 0 || c[isa.FPAdd] == 0 {
		t.Fatal("FFT emits no floating point")
	}
	if c[isa.FPAdd] != 2*c[isa.FPMul] {
		t.Fatalf("butterfly shape: fpadd=%d fpmul=%d", c[isa.FPAdd], c[isa.FPMul])
	}
	if c[isa.Prefetch] == 0 {
		t.Fatal("prefetching enabled but none emitted")
	}
	if c[isa.Barrier] == 0 {
		t.Fatal("no barriers")
	}
}

func TestFFTDeterministicStream(t *testing.T) {
	a := countOps(t, apps.FFT(apps.FFTOpts{LogN: 10, Procs: 2}))
	b := countOps(t, apps.FFT(apps.FFTOpts{LogN: 10, Procs: 2}))
	for op, n := range a {
		if b[op] != n {
			t.Fatalf("op %v: %d vs %d", op, n, b[op])
		}
	}
}

func TestFFTBlockingVariantsSameWork(t *testing.T) {
	cb := countOps(t, apps.FFT(apps.FFTOpts{LogN: 10, Procs: 1}))
	tb := countOps(t, apps.FFT(apps.FFTOpts{LogN: 10, Procs: 1, TLBBlocked: true}))
	// The blocking fix reorders accesses but does not change the work.
	for _, op := range []isa.Op{isa.Load, isa.Store, isa.FPAdd, isa.FPMul} {
		if cb[op] != tb[op] {
			t.Fatalf("op %v differs across blocking: %d vs %d", op, cb[op], tb[op])
		}
	}
}

func TestFFTTLBBlockingReducesMisses(t *testing.T) {
	// On a SimOS machine, the TLB-blocked transpose must take far
	// fewer TLB misses. LogN=16 so the column span exceeds the TLB.
	if testing.Short() {
		t.Skip("full-size FFT")
	}
	cfg := quickCfg(1, osmodel.SimOS)
	resCB, err := machine.Run(cfg, apps.FFT(apps.FFTOpts{LogN: 16, Procs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	resTB, err := machine.Run(cfg, apps.FFT(apps.FFTOpts{LogN: 16, Procs: 1, TLBBlocked: true}))
	if err != nil {
		t.Fatal(err)
	}
	if resTB.TLBMisses*2 > resCB.TLBMisses {
		t.Fatalf("TLB blocking ineffective: %d vs %d misses", resTB.TLBMisses, resCB.TLBMisses)
	}
	if resTB.Exec >= resCB.Exec {
		t.Fatalf("TLB blocking did not speed up: %d vs %d", resTB.Exec, resCB.Exec)
	}
}

func TestRadixSortsOnEveryConfig(t *testing.T) {
	for _, procs := range []int{1, 3, 4} {
		for _, radix := range []int{32, 256} {
			prog := apps.Radix(apps.RadixOpts{Keys: 1 << 12, Radix: radix, Procs: procs, Verify: true})
			if _, err := machine.Run(quickCfg(procs, osmodel.Solo), prog); err != nil {
				t.Fatalf("radix=%d procs=%d: %v", radix, procs, err)
			}
		}
	}
}

func TestRadixEmitsDividesAndMultiplies(t *testing.T) {
	c := countOps(t, apps.Radix(apps.RadixOpts{Keys: 1 << 10, Radix: 32, Procs: 1}))
	if c[isa.IntDiv] == 0 || c[isa.IntMul] == 0 {
		t.Fatalf("radix must emit high-latency integer ops: div=%d mul=%d", c[isa.IntDiv], c[isa.IntMul])
	}
}

func TestRadixPassCount(t *testing.T) {
	// 20 key bits: radix 256 -> 3 passes, radix 32 -> 4 passes; divide
	// count is one per key per pass (histogram phase).
	c256 := countOps(t, apps.Radix(apps.RadixOpts{Keys: 1 << 10, Radix: 256, Procs: 1}))
	c32 := countOps(t, apps.Radix(apps.RadixOpts{Keys: 1 << 10, Radix: 32, Procs: 1}))
	if c256[isa.IntDiv] != 3*(1<<10) {
		t.Fatalf("radix 256 divides = %d, want 3 per key", c256[isa.IntDiv])
	}
	if c32[isa.IntDiv] != 4*(1<<10) {
		t.Fatalf("radix 32 divides = %d, want 4 per key", c32[isa.IntDiv])
	}
}

func TestRadixUnplacedHomesEverythingOnNode0(t *testing.T) {
	prog := apps.Radix(apps.RadixOpts{Keys: 1 << 12, Radix: 32, Procs: 4, Unplaced: true})
	space, streams := prog.Launch()
	streams.Abort()
	for _, r := range space.Regions() {
		if r.Name == "keys" || r.Name == "keys2" {
			if r.Place.Kind != emitter.PlaceOnNode || r.Place.Node != 0 {
				t.Fatalf("region %s placement %+v", r.Name, r.Place)
			}
		}
	}
}

func TestLURunsAndEmitsFP(t *testing.T) {
	c := countOps(t, apps.LU(apps.LUOpts{N: 64, Procs: 2}))
	if c[isa.FPMul] == 0 || c[isa.FPDiv] == 0 {
		t.Fatalf("LU fp mix: %v", c)
	}
	prog := apps.LU(apps.LUOpts{N: 64, Procs: 2})
	if _, err := machine.Run(quickCfg(2, osmodel.SimOS), prog); err != nil {
		t.Fatal(err)
	}
}

func TestLURoundsDimensionToBlock(t *testing.T) {
	c1 := countOps(t, apps.LU(apps.LUOpts{N: 60, Procs: 1}))
	c2 := countOps(t, apps.LU(apps.LUOpts{N: 64, Procs: 1}))
	if c1[isa.FPMul] != c2[isa.FPMul] {
		t.Fatalf("N=60 should round to 64: %d vs %d", c1[isa.FPMul], c2[isa.FPMul])
	}
}

func TestOceanRunsOnSoloAndSimOS(t *testing.T) {
	for _, kind := range []osmodel.Kind{osmodel.Solo, osmodel.SimOS} {
		prog := apps.Ocean(apps.OceanOpts{N: 32, Grids: 6, Iters: 1, Procs: 2})
		if _, err := machine.Run(quickCfg(2, kind), prog); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestOceanEmitsLocksAndDivides(t *testing.T) {
	c := countOps(t, apps.Ocean(apps.OceanOpts{N: 16, Grids: 6, Iters: 2, Procs: 2}))
	if c[isa.Lock] == 0 || c[isa.Unlock] == 0 {
		t.Fatal("ocean must use the residual lock")
	}
	if c[isa.FPDiv] == 0 {
		t.Fatal("ocean must emit high-latency FP divides")
	}
	if c[isa.Lock] != c[isa.Unlock] {
		t.Fatalf("lock/unlock imbalance: %d vs %d", c[isa.Lock], c[isa.Unlock])
	}
}

func TestCacheMgmtEmitsCacheOps(t *testing.T) {
	c := countOps(t, apps.CacheMgmt(apps.CacheMgmtOpts{Lines: 32, Rounds: 2, Procs: 1}))
	if c[isa.CacheOp] != 64 {
		t.Fatalf("cache ops %d, want 64", c[isa.CacheOp])
	}
	prog := apps.CacheMgmt(apps.CacheMgmtOpts{Lines: 32, Rounds: 2, Procs: 2})
	if _, err := machine.Run(quickCfg(2, osmodel.SimOS), prog); err != nil {
		t.Fatal(err)
	}
}

func TestSoloOceanConflictsExceedSimOS(t *testing.T) {
	// The §3.1.2 page-coloring effect: Solo's allocator gives
	// uniprocessor Ocean a much higher L2 miss rate than IRIX
	// coloring. Needs full-size grids so color phases matter.
	if testing.Short() {
		t.Skip("full-size Ocean")
	}
	prog := func() emitter.Program {
		return apps.Ocean(apps.OceanOpts{N: 128, Grids: 14, Iters: 2, Procs: 1})
	}
	solo, err := machine.Run(quickCfg(1, osmodel.Solo), prog())
	if err != nil {
		t.Fatal(err)
	}
	simos, err := machine.Run(quickCfg(1, osmodel.SimOS), prog())
	if err != nil {
		t.Fatal(err)
	}
	if solo.L2MissRate() < 2*simos.L2MissRate() {
		t.Fatalf("Solo L2 miss rate %.2f%% should far exceed SimOS %.2f%%",
			100*solo.L2MissRate(), 100*simos.L2MissRate())
	}
}
