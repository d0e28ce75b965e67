// Package isa defines the synthetic instruction set that workloads are
// expressed in and that every processor model consumes.
//
// The study does not interpret real MIPS binaries; instead the SPLASH-2
// kernels are real Go implementations of the algorithms, instrumented so
// that every load, store, and arithmetic operation is emitted as an
// Instr with true data dependences (see internal/emitter). This is the
// "same binary on every platform" requirement of the paper recast for a
// pure-software reproduction: the identical instruction stream is fed to
// Mipsy, MXS, and the hardware reference model.
package isa

import "fmt"

// Op is an instruction kind. The set covers the operations whose timing
// the paper found to matter: integer ALU vs. high-latency integer
// multiply/divide, floating point add/multiply/divide, memory operations
// (including prefetch and the MIPS CACHE op whose mis-modeling was one
// of the MXS bugs), branches, pipeline-flushing coprocessor-0 ops (the
// reason TLB handlers cost 65 cycles on the R10000), system calls, and
// semantic synchronization.
type Op uint8

const (
	// Nop burns an issue slot.
	Nop Op = iota
	// IntALU is a 1-cycle integer operation (add, shift, logic, compare).
	IntALU
	// IntMul is an integer multiply (5 cycles on the R10000).
	IntMul
	// IntDiv is an integer divide (19 cycles on the R10000).
	IntDiv
	// FPAdd is a floating-point add/subtract (2 cycles).
	FPAdd
	// FPMul is a floating-point multiply (2 cycles).
	FPMul
	// FPDiv is a floating-point divide (19 cycles).
	FPDiv
	// Load reads Size bytes at Addr.
	Load
	// Store writes Size bytes at Addr.
	Store
	// Prefetch is a non-binding hint to fetch the line at Addr.
	Prefetch
	// Branch is a conditional branch (subject to prediction in MXS).
	Branch
	// CacheOp is the MIPS CACHE instruction (hit-writeback-invalidate
	// etc.); its mis-modeling was a documented MXS performance bug.
	CacheOp
	// Cop0 is a coprocessor-0 operation that flushes the pipeline
	// (TLB write, status register manipulation). These dominate the
	// cost of the R10000 TLB refill handler.
	Cop0
	// Syscall enters the operating system (emulated by a backdoor in
	// Solo, costed by the OS model in SimOS).
	Syscall
	// Lock acquires the lock identified by Aux.
	Lock
	// Unlock releases the lock identified by Aux.
	Unlock
	// Barrier joins the barrier identified by Aux; all participants
	// must arrive before any proceeds.
	Barrier
	// NumOps is the number of instruction kinds.
	NumOps
)

var opNames = [NumOps]string{
	"nop", "alu", "mul", "div", "fadd", "fmul", "fdiv",
	"load", "store", "pref", "br", "cache", "cop0", "syscall",
	"lock", "unlock", "barrier",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op references memory through the data cache.
func (o Op) IsMem() bool {
	return o == Load || o == Store || o == Prefetch || o == CacheOp
}

// IsSync reports whether the op is a semantic synchronization operation.
func (o Op) IsSync() bool { return o == Lock || o == Unlock || o == Barrier }

// IsCompute reports whether the op stays inside the core (no memory,
// sync or syscall): trace replay collapses runs of these into one step.
func (o Op) IsCompute() bool { return !o.IsMem() && !o.IsSync() && o != Syscall }

// Instr is one instruction of the synthetic ISA.
//
// Dependences are encoded as backward distances: Dep1/Dep2 == k means
// "this instruction consumes the value produced by the instruction k
// positions earlier in this thread's stream" (0 means no dependence).
// Distances rather than register names keep the stream self-contained
// for the out-of-order models.
type Instr struct {
	Op   Op
	Addr uint64 // virtual address for memory ops
	Size uint32 // access size in bytes for memory ops
	Dep1 uint32 // backward distance to first source producer (0 = none)
	Dep2 uint32 // backward distance to second source producer (0 = none)
	Aux  uint32 // lock/barrier id, CACHE sub-op, or syscall number
}

// String renders the instruction for debugging.
func (in Instr) String() string {
	switch {
	case in.Op.IsMem():
		return fmt.Sprintf("%s 0x%x/%d [d1=%d d2=%d]", in.Op, in.Addr, in.Size, in.Dep1, in.Dep2)
	case in.Op.IsSync():
		return fmt.Sprintf("%s #%d", in.Op, in.Aux)
	default:
		return fmt.Sprintf("%s [d1=%d d2=%d]", in.Op, in.Dep1, in.Dep2)
	}
}

// Latency describes the execution latency and issue constraints of an op
// on a particular processor implementation.
type Latency struct {
	// Cycles is the execution latency in processor cycles.
	Cycles uint32
	// Unit is the functional unit class the op issues to.
	Unit Unit
	// FlushesPipe reports whether completing the op drains the
	// pipeline (coprocessor-0 ops on the R10000).
	FlushesPipe bool
}

// Unit is a functional-unit class, used by MXS-style models to enforce
// structural hazards.
type Unit uint8

const (
	// UnitNone needs no functional unit (sync ops, nop).
	UnitNone Unit = iota
	// UnitALU is one of the two integer ALUs.
	UnitALU
	// UnitMulDiv is the (unpipelined) integer multiply/divide unit.
	UnitMulDiv
	// UnitFPAdd is the floating-point adder.
	UnitFPAdd
	// UnitFPMul is the floating-point multiplier (also hosts divide).
	UnitFPMul
	// UnitLS is the load/store (address-generation) unit.
	UnitLS
	// NumUnits is the number of functional-unit classes.
	NumUnits
)

var unitNames = [NumUnits]string{"none", "alu", "muldiv", "fpadd", "fpmul", "ls"}

// String returns the unit class name.
func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// LatencyTable maps ops to latencies for one processor implementation.
type LatencyTable [NumOps]Latency

// R10000Latencies returns the latency table of the real MIPS R10000 as
// configured in FLASH. These are the numbers the paper quotes when
// correcting Mipsy (5-cycle multiply, 19-cycle divide) and are used
// verbatim by the hardware reference model and by tuned MXS.
func R10000Latencies() LatencyTable {
	var t LatencyTable
	t[Nop] = Latency{Cycles: 1, Unit: UnitALU}
	t[IntALU] = Latency{Cycles: 1, Unit: UnitALU}
	t[IntMul] = Latency{Cycles: 5, Unit: UnitMulDiv}
	t[IntDiv] = Latency{Cycles: 19, Unit: UnitMulDiv}
	t[FPAdd] = Latency{Cycles: 2, Unit: UnitFPAdd}
	t[FPMul] = Latency{Cycles: 2, Unit: UnitFPMul}
	t[FPDiv] = Latency{Cycles: 19, Unit: UnitFPMul}
	t[Load] = Latency{Cycles: 2, Unit: UnitLS}
	t[Store] = Latency{Cycles: 1, Unit: UnitLS}
	t[Prefetch] = Latency{Cycles: 1, Unit: UnitLS}
	t[Branch] = Latency{Cycles: 1, Unit: UnitALU}
	t[CacheOp] = Latency{Cycles: 1, Unit: UnitLS}
	t[Cop0] = Latency{Cycles: 3, Unit: UnitALU, FlushesPipe: true}
	t[Syscall] = Latency{Cycles: 1, Unit: UnitNone}
	t[Lock] = Latency{Cycles: 1, Unit: UnitNone}
	t[Unlock] = Latency{Cycles: 1, Unit: UnitNone}
	t[Barrier] = Latency{Cycles: 1, Unit: UnitNone}
	return t
}
