package core

import (
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/param"
)

// Defect is one historical simulator error as data: the registry change
// that puts it into a defect-free configuration, and the workload that
// makes it visible. Measuring it is a one-step Reference.Walk.
type Defect struct {
	Name        string
	Description string
	// Base is the defect-free 1-processor configuration (full fidelity
	// for the knob in question).
	Base machine.Config
	// Delta is the defect: good value -> bad value. Its Class is the
	// defect's place in the paper's taxonomy (§3.1.2).
	Delta param.Delta
	// Workload is the workload registry name that exposes the defect.
	Workload string
}

// KnownDefects returns the paper's documented simulator errors.
func KnownDefects() []Defect {
	// The reference-grade out-of-order configuration: the hardware
	// model minus jitter.
	mxs := hw.Config(1, true)
	mxs.JitterPct = 0
	mxs.Name = "MXS full-fidelity"
	mipsy := SimOSMipsy(1, 225, true)
	mipsy.ModelInstrLatency = true
	mipsy.OS.TLBHandlerCycles = hw.TrueTLBHandlerCycles
	return []Defect{
		{
			Name: "mxs-fast-issue",
			Description: "MXS moved an instruction through the pipeline too quickly " +
				"when all of its resources were available at issue (found by the " +
				"Rivet pipeline visualizer)",
			Base: mxs, Workload: "lu",
			Delta: param.Delta{Path: "mxs.bug_fast_issue", Before: false, After: true},
		},
		{
			Name: "mxs-cacheop-stall",
			Description: "the MIPS CACHE instruction on a dirty line never signaled " +
				"completion; the processor stalled ~1M cycles until a timer " +
				"interrupt retried it (unnoticed for months)",
			Base: mxs, Workload: "cachemgmt",
			Delta: param.Delta{Path: "mxs.bug_cache_op_stall", Before: false, After: true},
		},
		{
			Name: "mipsy-unit-latency",
			Description: "Mipsy executes every instruction in one cycle; integer " +
				"multiply (5 cycles) and divide (19 cycles) are under-charged, " +
				"under-predicting Radix-Sort and Ocean",
			Base: mipsy, Workload: "radix",
			Delta: param.Delta{Path: "cpu.model_instr_latency", Before: true, After: false},
		},
		{
			Name: "tlb-cost-25",
			Description: "the TLB is modeled but its refill is charged 25 cycles " +
				"instead of the hardware's 65 (exception overhead, serial " +
				"dependences, pipeline-flushing coprocessor instructions)",
			Base: mxs, Workload: "radix",
			Delta: param.Delta{Path: "os.tlb.handler_cycles", Before: uint64(hw.TrueTLBHandlerCycles), After: uint64(UntunedMipsyTLBCycles)},
		},
		{
			Name: "no-l2-interface-occupancy",
			Description: "back-to-back load latency mispredicted because the " +
				"occupancy of the R10000's external cache interface was not modeled",
			Base: mxs, Workload: "fft",
			Delta: param.Delta{Path: "l2.model_interface_occupancy", Before: true, After: false},
		},
		{
			Name: "no-address-interlocks",
			Description: "generic out-of-order models omit R10000 address " +
				"interlocks, which can cost 20-30% (Ofelt); MXS runs that much " +
				"faster than the hardware",
			Base: mxs, Workload: "lu",
			Delta: param.Delta{Path: "mxs.model_address_interlocks", Before: true, After: false},
		},
	}
}
