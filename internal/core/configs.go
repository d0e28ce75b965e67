// Package core implements the paper's methodology — closing the
// simulation loop. It provides:
//
//   - Reference: the hardware gold standard, measured like real
//     hardware (averaging several seeded runs), and Batch, the one way
//     anything is measured: hardware and simulator points, one pool
//     submission;
//   - the seven study simulator configurations (Solo-Mipsy and
//     SimOS-Mipsy at 150/225/300 MHz, SimOS-MXS at 150 MHz), untuned
//     exactly as the paper describes them;
//   - Calibrator: the microbenchmark-driven tuning loop that fixes the
//     TLB-refill cost, enables and fits the secondary-cache interface
//     occupancy, and tunes FlashLite's timing constants until the five
//     dependent-load protocol cases match the hardware (Table 3);
//   - Study: relative-execution-time comparison of simulators against
//     the reference (Figures 1–4);
//   - Reference.Speedups: speedup-curve prediction studies (Figures 5–7);
//   - Reference.Walk: execution time along a path of registry deltas
//     between two configurations, and the historical defects (§3.1.2)
//     as a table of such deltas.
package core

import (
	"fmt"
	"strings"

	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
	"flashsim/internal/param"
)

// Untuned TLB-refill costs of the study simulators ("The Mipsy processor
// model takes 25 cycles for these 14 instructions. MXS ... predicts 35
// cycles." The hardware takes 65.)
const (
	UntunedMipsyTLBCycles = 25
	UntunedMXSTLBCycles   = 35
)

// SimOSMipsy returns the SimOS-Mipsy simulator at the given core clock
// (150, 225, or 300 MHz), untuned: 25-cycle TLB refills, design-estimate
// FlashLite timing, no secondary-cache interface occupancy, unit
// instruction latencies.
func SimOSMipsy(procs, mhz int, scaled bool) machine.Config {
	cfg := machine.Base(procs, scaled)
	cfg.Name = fmt.Sprintf("SimOS-Mipsy %dMHz", mhz)
	cfg.CPU = machine.CPUMipsy
	cfg.ClockMHz = mhz
	cfg.OS = osmodel.DefaultSimOS()
	cfg.OS.TLBHandlerCycles = UntunedMipsyTLBCycles
	cfg.Mem = machine.MemFlashLite
	cfg.FlashTiming = memsys.DesignTiming()
	return cfg
}

// SimOSMXS returns the SimOS-MXS simulator: the generic out-of-order
// model at the hardware clock, untuned: 35-cycle TLB refills, no R10000
// corner cases, design-estimate FlashLite timing.
func SimOSMXS(procs int, scaled bool) machine.Config {
	cfg := machine.Base(procs, scaled)
	cfg.Name = "SimOS-MXS 150MHz"
	cfg.CPU = machine.CPUMXS
	cfg.ClockMHz = 150
	cfg.OS = osmodel.DefaultSimOS()
	cfg.OS.TLBHandlerCycles = UntunedMXSTLBCycles
	cfg.Mem = machine.MemFlashLite
	cfg.FlashTiming = memsys.DesignTiming()
	return cfg
}

// SoloMipsy returns the Solo-Mipsy simulator at the given clock: no
// operating system (backdoor syscalls, no TLB, Solo's own sequential
// physical allocation), design-estimate FlashLite timing.
func SoloMipsy(procs, mhz int, scaled bool) machine.Config {
	cfg := machine.Base(procs, scaled)
	cfg.Name = fmt.Sprintf("Solo-Mipsy %dMHz", mhz)
	cfg.CPU = machine.CPUMipsy
	cfg.ClockMHz = mhz
	cfg.OS = osmodel.DefaultSolo()
	cfg.Mem = machine.MemFlashLite
	cfg.FlashTiming = memsys.DesignTiming()
	return cfg
}

// StandardConfigs returns the seven simulator configurations of
// Figures 1–4, in the figures' X-axis order: SimOS-Mipsy at 150, 225,
// and 300 MHz, SimOS-MXS at 150 MHz, then Solo-Mipsy at 150, 225, and
// 300 MHz.
func StandardConfigs(procs int, scaled bool) []machine.Config {
	return []machine.Config{
		SimOSMipsy(procs, 150, scaled),
		SimOSMipsy(procs, 225, scaled),
		SimOSMipsy(procs, 300, scaled),
		SimOSMXS(procs, scaled),
		SoloMipsy(procs, 150, scaled),
		SoloMipsy(procs, 225, scaled),
		SoloMipsy(procs, 300, scaled),
	}
}

// ConfigNames lists the machine models ConfigByName resolves: the
// hardware reference and the three simulator families of the study.
var ConfigNames = []string{"hw", "simos-mipsy", "simos-mxs", "solo-mipsy"}

// ConfigByName builds the named machine model. mhz applies to the
// Mipsy-based models only (MXS and the hardware run at 150).
func ConfigByName(name string, procs, mhz int, scaled bool) (machine.Config, error) {
	switch name {
	case "hw":
		return hw.Config(procs, scaled), nil
	case "simos-mipsy":
		return SimOSMipsy(procs, mhz, scaled), nil
	case "simos-mxs":
		return SimOSMXS(procs, scaled), nil
	case "solo-mipsy":
		return SoloMipsy(procs, mhz, scaled), nil
	}
	return machine.Config{}, fmt.Errorf("unknown simulator %q (want %s)", name, strings.Join(ConfigNames, ", "))
}

// ConfigSpec names a machine: a base model plus param-registry deltas.
// It is what a flashd request carries and what flashsim's -sim, -mhz
// and -procs fill, so both front ends build a machine one way.
type ConfigSpec struct {
	// Base is one of ConfigNames.
	Base string `json:"base"`
	// MHz is the Mipsy clock (default 150). hw and simos-mxs run at 150
	// and refuse any other; cpu.clock_mhz moves any model's clock.
	MHz int `json:"mhz,omitempty"`
	// Procs is the processor count (default 1).
	Procs int `json:"procs,omitempty"`
	// Seed overrides the model's own jitter seed when nonzero.
	Seed uint64 `json:"seed,omitempty"`
	// Set is the parameter-override list, validated against the
	// registry.
	Set []param.Setting `json:"set,omitempty"`
}

// Config materializes the spec through ConfigByName and the param
// registry and validates the result: a spec this accepts is one
// machine.New builds.
func (c ConfigSpec) Config() (machine.Config, error) {
	if c.Procs == 0 {
		c.Procs = 1
	}
	if err := CheckProcs(c.Procs); err != nil {
		return machine.Config{}, fmt.Errorf("procs: %v", err)
	}
	if c.MHz == 0 {
		c.MHz = 150
	}
	if c.MHz != 150 && (c.Base == "hw" || c.Base == "simos-mxs") {
		return machine.Config{}, fmt.Errorf("mhz: %s runs at 150, not %d (cpu.clock_mhz sets its clock)", c.Base, c.MHz)
	}
	if c.Base == "" {
		return machine.Config{}, fmt.Errorf("base config missing")
	}
	cfg, err := ConfigByName(c.Base, c.Procs, c.MHz, true)
	if err != nil {
		return machine.Config{}, err
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if cfg, err = param.ApplySettings(cfg, c.Set); err != nil {
		return machine.Config{}, err
	}
	return cfg, cfg.Validate()
}

// CheckProcs holds a processor count to the registry's bounds on procs,
// 8× the largest machine any experiment builds (WideSizes). A machine's
// memory grows with its processor count, and running out of it kills
// the process (no recover catches that), so a front end checks before
// it builds one.
func CheckProcs(n int) error {
	p, _ := param.Lookup("procs")
	_, err := param.Coerce(p.Kind, p.Min, p.Max, nil, n)
	return err
}

// WideSizes is the widened machine matrix of the server-class workload
// studies: the original FLASH prototype sizes stop at 16 nodes, these
// extend the same scaled geometry to the full hypercube sizes the
// network model supports.
var WideSizes = []int{32, 64, 128}

// WithNUMA swaps a configuration's memory system for the generic NUMA
// model (its latency parameters were "known well in advance of building
// the hardware", so no tuning applies).
func WithNUMA(cfg machine.Config) machine.Config {
	cfg.Mem = machine.MemNUMA
	cfg.Name += " (NUMA)"
	return cfg
}
