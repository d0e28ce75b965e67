package isa

import "testing"

func TestOpClassification(t *testing.T) {
	memOps := []Op{Load, Store, Prefetch, CacheOp}
	for _, op := range memOps {
		if !op.IsMem() {
			t.Errorf("%v should be a memory op", op)
		}
		if op.IsSync() {
			t.Errorf("%v should not be a sync op", op)
		}
	}
	syncOps := []Op{Lock, Unlock, Barrier}
	for _, op := range syncOps {
		if !op.IsSync() {
			t.Errorf("%v should be a sync op", op)
		}
		if op.IsMem() {
			t.Errorf("%v should not be a memory op", op)
		}
	}
	for _, op := range []Op{IntALU, IntMul, FPAdd, Branch, Cop0, Syscall} {
		if op.IsMem() || op.IsSync() {
			t.Errorf("%v misclassified", op)
		}
	}
	compute := map[Op]bool{Nop: true, IntALU: true, IntMul: true, IntDiv: true,
		FPAdd: true, FPMul: true, FPDiv: true, Branch: true, Cop0: true}
	for op := Op(0); op < NumOps; op++ {
		if op.IsCompute() != compute[op] {
			t.Errorf("%v: IsCompute() = %v", op, op.IsCompute())
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if Load.String() != "load" || IntDiv.String() != "div" {
		t.Error("unexpected mnemonics")
	}
}

func TestR10000Latencies(t *testing.T) {
	lat := R10000Latencies()
	// The values the paper quotes for the §3.1.3 correction.
	if lat[IntMul].Cycles != 5 {
		t.Errorf("multiply latency %d, want 5", lat[IntMul].Cycles)
	}
	if lat[IntDiv].Cycles != 19 {
		t.Errorf("divide latency %d, want 19", lat[IntDiv].Cycles)
	}
	if !lat[Cop0].FlushesPipe {
		t.Error("coprocessor-0 ops must flush the pipeline")
	}
	if lat[IntMul].Unit != UnitMulDiv || lat[IntDiv].Unit != UnitMulDiv {
		t.Error("mul/div must share the unpipelined unit")
	}
	if lat[Load].Unit != UnitLS || lat[Store].Unit != UnitLS {
		t.Error("memory ops must use the load/store unit")
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: Load, Addr: 0x1000, Size: 8, Dep2: 1}
	if in.String() == "" {
		t.Fatal("empty render")
	}
	bar := Instr{Op: Barrier, Aux: 3}
	if bar.String() != "barrier #3" {
		t.Fatalf("barrier render %q", bar.String())
	}
}

func TestUnitString(t *testing.T) {
	for u := Unit(0); u < NumUnits; u++ {
		if u.String() == "" {
			t.Errorf("unit %d unnamed", u)
		}
	}
}
