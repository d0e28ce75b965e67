package core

import (
	"fmt"

	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
)

// ErrorClass is the paper's taxonomy of simulator error sources
// (§3.1.2): performance bugs, deliberate omission of large effects, and
// lack of sufficient detail in modeled effects.
type ErrorClass uint8

const (
	// Bug: an outright modeling defect ("subtle performance bugs can
	// live in a production simulator for years").
	Bug ErrorClass = iota
	// Omission: a deliberately unmodeled effect (Solo's missing TLB
	// and OS, Mipsy's unit instruction latencies).
	Omission
	// LackOfDetail: an effect that is modeled but not modeled
	// correctly (the 25/35-cycle TLB refill, the missing
	// secondary-cache interface occupancy, NUMA's missing occupancy).
	LackOfDetail
)

// String names the class.
func (c ErrorClass) String() string {
	switch c {
	case Bug:
		return "bug"
	case Omission:
		return "omission"
	case LackOfDetail:
		return "lack-of-detail"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Defect is one historical simulator error, injectable into a
// configuration so its performance impact can be quantified.
type Defect struct {
	Name        string
	Class       ErrorClass
	Description string
	// Inject returns cfg with the defect present.
	Inject func(cfg machine.Config) machine.Config
	// Baseline returns the defect-free configuration the defect is
	// measured against (full fidelity for the knob in question).
	Baseline func(procs int, scaled bool) machine.Config
	// WorkloadHint names the workload class that makes the defect
	// visible: "fft", "lu", "radix", "cachemgmt".
	WorkloadHint string
}

// fullFidelityMXS is the reference-grade out-of-order configuration
// defects are injected into (the hardware model minus jitter).
func fullFidelityMXS(procs int, scaled bool) machine.Config {
	cfg := hw.Config(procs, scaled)
	cfg.JitterPct = 0
	cfg.Name = "MXS full-fidelity"
	return cfg
}

// KnownDefects returns the paper's documented simulator errors, each
// paired with the defect-free baseline and a workload class that makes
// it visible.
func KnownDefects() []Defect {
	return []Defect{
		{
			Name:  "mxs-fast-issue",
			Class: Bug,
			Description: "MXS moved an instruction through the pipeline too quickly " +
				"when all of its resources were available at issue (found by the " +
				"Rivet pipeline visualizer)",
			Baseline:     fullFidelityMXS,
			WorkloadHint: "lu",
			Inject: func(cfg machine.Config) machine.Config {
				cfg.MXS.BugFastIssue = true
				cfg.Name += " +fast-issue-bug"
				return cfg
			},
		},
		{
			Name:  "mxs-cacheop-stall",
			Class: Bug,
			Description: "the MIPS CACHE instruction on a dirty line never signaled " +
				"completion; the processor stalled ~1M cycles until a timer " +
				"interrupt retried it (unnoticed for months)",
			Baseline:     fullFidelityMXS,
			WorkloadHint: "cachemgmt",
			Inject: func(cfg machine.Config) machine.Config {
				cfg.MXS.BugCacheOpStall = true
				cfg.Name += " +cacheop-bug"
				return cfg
			},
		},
		{
			Name:  "mipsy-unit-latency",
			Class: Omission,
			Description: "Mipsy executes every instruction in one cycle; integer " +
				"multiply (5 cycles) and divide (19 cycles) are under-charged, " +
				"under-predicting Radix-Sort and Ocean",
			Baseline: func(procs int, scaled bool) machine.Config {
				cfg := SimOSMipsy(procs, 225, scaled)
				cfg.ModelInstrLatency = true
				cfg.OS.TLBHandlerCycles = 65
				return cfg
			},
			WorkloadHint: "radix",
			Inject: func(cfg machine.Config) machine.Config {
				cfg.ModelInstrLatency = false
				return cfg
			},
		},
		{
			Name:  "tlb-cost-25",
			Class: LackOfDetail,
			Description: "the TLB is modeled but its refill is charged 25 cycles " +
				"instead of the hardware's 65 (exception overhead, serial " +
				"dependences, pipeline-flushing coprocessor instructions)",
			Baseline:     fullFidelityMXS,
			WorkloadHint: "radix",
			Inject: func(cfg machine.Config) machine.Config {
				if cfg.OS.TLBHandlerCycles > 0 {
					cfg.OS.TLBHandlerCycles = UntunedMipsyTLBCycles
				}
				return cfg
			},
		},
		{
			Name:  "no-l2-interface-occupancy",
			Class: LackOfDetail,
			Description: "back-to-back load latency mispredicted because the " +
				"occupancy of the R10000's external cache interface was not modeled",
			Baseline:     fullFidelityMXS,
			WorkloadHint: "fft",
			Inject: func(cfg machine.Config) machine.Config {
				cfg.ModelL2InterfaceOccupancy = false
				return cfg
			},
		},
		{
			Name:  "no-address-interlocks",
			Class: LackOfDetail,
			Description: "generic out-of-order models omit R10000 address " +
				"interlocks, which can cost 20-30% (Ofelt); MXS runs that much " +
				"faster than the hardware",
			Baseline:     fullFidelityMXS,
			WorkloadHint: "lu",
			Inject: func(cfg machine.Config) machine.Config {
				cfg.MXS.ModelAddressInterlocks = false
				return cfg
			},
		},
	}
}

// DefectImpact measures a defect's effect: the workload's execution time
// with the defect injected relative to the baseline configuration.
type DefectImpact struct {
	Defect   Defect
	Workload string
	Baseline machine.Result
	Injected machine.Result
	// Relative is injected/baseline exec time; < 1 means the defect
	// makes the simulator optimistic.
	Relative float64
}

// MeasureDefect quantifies one defect on one workload at procs; both
// runs go through pool (nil = serial), so they count and memoize like
// every other run of a study.
func MeasureDefect(pool *runner.Pool, d Defect, base machine.Config, w Workload, procs int) (DefectImpact, error) {
	base.Procs = procs
	baseRes, err := runOne(pool, base, w.Make(procs))
	if err != nil {
		return DefectImpact{}, fmt.Errorf("baseline %s: %w", w.Name, err)
	}
	inj := d.Inject(base)
	inj.Procs = procs
	injRes, err := runOne(pool, inj, w.Make(procs))
	if err != nil {
		return DefectImpact{}, fmt.Errorf("injected %s on %s: %w", d.Name, w.Name, err)
	}
	return DefectImpact{
		Defect:   d,
		Workload: w.Name,
		Baseline: baseRes,
		Injected: injRes,
		Relative: float64(injRes.Exec) / float64(baseRes.Exec),
	}, nil
}
