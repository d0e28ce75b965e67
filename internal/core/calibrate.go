package core

import (
	"fmt"
	"math"

	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/proto"
	"flashsim/internal/snbench"
)

// Calibration is the set of parameter corrections the tuning loop
// produces: a generic list of registry deltas ({path, before, after})
// applied through internal/param, so the calibrator never needs a
// per-field switch and new knobs join the loop by registration alone.
// It is the code form of §3.1.2's fixes: the corrected TLB-refill cost
// (os.tlb.handler_cycles), the enabled-and-fitted secondary-cache
// interface occupancy (l2.model_interface_occupancy, l2.transfer_ns),
// and the FlashLite timing constants (flash.*) that make the five
// dependent-load protocol cases match the hardware.
type Calibration struct {
	// Deltas is the calibration itself, in registry-path order.
	Deltas []param.Delta
	// Report records every adjustment for the write-up, keyed by the
	// same registry paths.
	Report []Adjustment
}

// Adjustment records one tuning step against the microbenchmark that
// drove it.
type Adjustment struct {
	// Param is the registry path of the adjusted knob.
	Param     string
	Before    float64
	After     float64
	HWMetric  float64
	SimBefore float64
	SimAfter  float64
	Unit      string
}

// String renders the adjustment.
func (a Adjustment) String() string {
	return fmt.Sprintf("%-30s %8.1f -> %8.1f %-6s (hw %.1f, sim %.1f -> %.1f)",
		a.Param, a.Before, a.After, a.Unit, a.HWMetric, a.SimBefore, a.SimAfter)
}

// Apply rewrites cfg with the calibrated parameters through the
// registry. Deltas produced by Calibrate are always registry-valid, so
// a failure to apply is a programming error, not a runtime condition.
func (c Calibration) Apply(cfg machine.Config) machine.Config {
	out, err := param.ApplyDeltas(cfg, c.Deltas)
	if err != nil {
		panic(fmt.Sprintf("core: calibration deltas failed to apply: %v", err))
	}
	out.Name = cfg.Name + " (tuned)"
	return out
}

// RenderDiff renders the calibration as a registry diff (the
// untuned-to-tuned parameter changes, one per line).
func (c Calibration) RenderDiff() string { return param.RenderDeltas(c.Deltas) }

// Calibrator closes the simulation loop: it measures microbenchmarks on
// the hardware reference and iteratively adjusts a simulator's
// parameters until the measurements agree.
type Calibrator struct {
	Ref *Reference
}

// Each fitting loop runs at most maxRounds times; the dependent-load
// loop stops once every case is within tolNS of the hardware.
const (
	maxRounds = 6
	tolNS     = 20
)

// NewCalibrator returns a calibrator against ref.
func NewCalibrator(ref *Reference) *Calibrator {
	return &Calibrator{Ref: ref}
}

// TLBCycles measures a configuration's TLB-refill cost with the snbench
// TLB timer on one processor; TLBCycles(Ref.ConfigAt(1)) is the
// hardware's (the metric reads barrier releases, so it takes one run,
// not an average).
func (c *Calibrator) TLBCycles(cfg machine.Config) (float64, error) {
	cfg.Procs = 1
	res, err := c.Ref.Run(cfg, snbench.TLBTimer())
	if err != nil {
		return 0, err
	}
	return snbench.TLBHandlerCycles(res, cfg.ClockMHz), nil
}

// restartNS measures a configuration's back-to-back load throughput
// with the snbench restart-time test on one processor (ns per load).
func (c *Calibrator) restartNS(cfg machine.Config) (float64, error) {
	cfg.Procs = 1
	res, err := c.Ref.Run(cfg, snbench.Restart(snbench.RestartLines))
	if err != nil {
		return 0, err
	}
	return snbench.ThroughputNSPerLoad(res, snbench.RestartLines), nil
}

// DepCases are the five protocol read cases of Table 3, in the paper's
// row order.
var DepCases = []proto.Case{
	proto.LocalClean,
	proto.LocalDirtyRemote,
	proto.RemoteClean,
	proto.RemoteDirtyHome,
	proto.RemoteDirtyRemote,
}

// DependentLoadLatencies measures all five Table 3 cases on the
// reference (ns per load), every case's repeats in one batch.
func (c *Calibrator) DependentLoadLatencies() (map[proto.Case]float64, error) {
	return c.depLatencies(DepCases, func(b *Batch, pc proto.Case) {
		b.HW(snbench.DependentLoads(pc), snbench.CaseProcs(pc))
	})
}

// DepLatencies measures Table 3 dependent-load cases on a simulator
// configuration (ns per load), the cases in one batch.
func (c *Calibrator) DepLatencies(cfg machine.Config, cases ...proto.Case) (map[proto.Case]float64, error) {
	return c.depLatencies(cases, func(b *Batch, pc proto.Case) {
		cfg.Procs = snbench.CaseProcs(pc)
		b.Sim(cfg, snbench.DependentLoads(pc))
	})
}

// depLatencies runs one point per case, as add builds it, in one batch.
func (c *Calibrator) depLatencies(cases []proto.Case, add func(*Batch, proto.Case)) (map[proto.Case]float64, error) {
	b := c.Ref.Batch()
	for _, pc := range cases {
		add(b, pc)
	}
	ms, err := b.Run()
	if err != nil {
		return nil, fmt.Errorf("dependent loads: %w", err)
	}
	out := make(map[proto.Case]float64, len(cases))
	for i, pc := range cases {
		out[pc] = snbench.LoadLatencyNS(pc, machine.Result{Exec: ms[i].Mean})
	}
	return out, nil
}

// Calibrate tunes cfg against the hardware reference and returns the
// calibration. The input configuration is not modified; apply the
// result with Calibration.Apply. Internally the loop evolves a working
// copy of cfg and the returned Deltas are the registry diff between the
// original and the fitted configuration, so every adjusted knob —
// present and future — flows through the same generic path.
func (c *Calibrator) Calibrate(cfg machine.Config) (Calibration, error) {
	var cal Calibration
	// work is the evolving tuned configuration; cfg stays untouched so
	// the final registry diff is exactly the calibration.
	work := cfg

	// Step 1: TLB-refill cost ("with hardware results and a
	// microbenchmark that times TLB misses, we were able to tune our
	// simulators to give the correct value"). Solo configurations keep
	// no TLB — there is nothing to correct; the omission is the point.
	if cfg.OS.TLBHandlerCycles > 0 {
		hwC, err := c.TLBCycles(c.Ref.ConfigAt(1))
		if err != nil {
			return cal, err
		}
		before := float64(work.OS.TLBHandlerCycles)
		simBefore, err := c.TLBCycles(work)
		if err != nil {
			return cal, err
		}
		simC := simBefore
		for round := 0; round < maxRounds && math.Abs(hwC-simC) > 1; round++ {
			next := float64(work.OS.TLBHandlerCycles) + (hwC - simC)
			if next < 1 {
				next = 1
			}
			work.OS.TLBHandlerCycles = uint32(next + 0.5)
			simC, err = c.TLBCycles(work)
			if err != nil {
				return cal, err
			}
		}
		cal.Report = append(cal.Report, Adjustment{
			Param: "os.tlb.handler_cycles", Unit: "cycles",
			Before: before, After: float64(work.OS.TLBHandlerCycles),
			HWMetric: hwC, SimBefore: simBefore, SimAfter: simC,
		})
	}

	// Step 2: secondary-cache interface occupancy (restart-time test).
	{
		hwT, err := c.restartNS(c.Ref.ConfigAt(1))
		if err != nil {
			return cal, err
		}
		probe := work
		probe.ModelL2InterfaceOccupancy = false
		simBefore, err := c.restartNS(probe)
		if err != nil {
			return cal, err
		}
		simT := simBefore
		if simT < hwT*0.97 {
			work.ModelL2InterfaceOccupancy = true
			for round := 0; round < maxRounds && math.Abs(hwT-simT) > 3; round++ {
				simT, err = c.restartNS(work)
				if err != nil {
					return cal, err
				}
				work.L2TransferNS += hwT - simT
				if work.L2TransferNS < 0 {
					work.L2TransferNS = 0
				}
			}
			// Logged only when the fit turned it on: a config that
			// already models the occupancy has nothing to report.
			if !cfg.ModelL2InterfaceOccupancy {
				cal.Report = append(cal.Report, Adjustment{
					Param: "l2.model_interface_occupancy", Unit: "bool",
					Before: 0, After: 1,
					HWMetric: hwT, SimBefore: simBefore, SimAfter: simT,
				})
			}
		}
		// When the occupancy stays off (blocking-read models are
		// already at or above the hardware throughput) this records a
		// no-change line: Before == After.
		cal.Report = append(cal.Report, Adjustment{
			Param: "l2.transfer_ns", Unit: "ns",
			Before: cfg.L2TransferNS, After: work.L2TransferNS,
			HWMetric: hwT, SimBefore: simBefore, SimAfter: simT,
		})
	}

	// Step 3: FlashLite timing against the five dependent-load cases
	// ("once local read latencies matched, we easily tuned FlashLite
	// parameters until read latencies for all five protocol read cases
	// also matched").
	if cfg.Mem == machine.MemFlashLite {
		hwLat, err := c.DependentLoadLatencies()
		if err != nil {
			return cal, err
		}
		before := work.FlashTiming
		fit := []proto.Case{proto.LocalClean, proto.RemoteClean, proto.LocalDirtyRemote}
		var simLat, first map[proto.Case]float64 // first: round 0's, the report's SimBefore
		for round := 0; round < maxRounds; round++ {
			if simLat, err = c.DepLatencies(work, fit...); err != nil {
				return cal, err
			}
			if round == 0 {
				first = simLat
			}
			dLC := hwLat[proto.LocalClean] - simLat[proto.LocalClean]
			dRC := hwLat[proto.RemoteClean] - simLat[proto.RemoteClean]
			dLDR := hwLat[proto.LocalDirtyRemote] - simLat[proto.LocalDirtyRemote]
			if math.Abs(dLC) < tolNS && math.Abs(dRC) < tolNS && math.Abs(dLDR) < tolNS {
				break
			}
			// Local clean is bus + controller + memory: split the
			// residual over the two bus legs.
			work.FlashTiming.BusRequestNS = clampNS(work.FlashTiming.BusRequestNS + dLC/2)
			work.FlashTiming.BusReplyNS = clampNS(work.FlashTiming.BusReplyNS + dLC/2)
			// Remote clean adds two network traversals: spread the
			// remaining residual over the four interface crossings.
			rcResidual := dRC - dLC
			work.FlashTiming.InboxNS = clampNS(work.FlashTiming.InboxNS + rcResidual/4)
			work.FlashTiming.OutboxNS = clampNS(work.FlashTiming.OutboxNS + rcResidual/4)
			// Dirty cases add the intervention at the owner.
			work.FlashTiming.InterventionNS = clampNS(work.FlashTiming.InterventionNS + (dLDR - dLC))
		}
		// The reply leg tracks the request leg and the outbox tracks
		// the inbox, so one report row each carries the pair.
		cal.Report = append(cal.Report,
			Adjustment{Param: "flash.bus_request_ns", Unit: "ns", Before: before.BusRequestNS, After: work.FlashTiming.BusRequestNS,
				HWMetric: hwLat[proto.LocalClean], SimBefore: first[proto.LocalClean], SimAfter: simLat[proto.LocalClean]},
			Adjustment{Param: "flash.inbox_ns", Unit: "ns", Before: before.InboxNS, After: work.FlashTiming.InboxNS,
				HWMetric: hwLat[proto.RemoteClean], SimBefore: first[proto.RemoteClean], SimAfter: simLat[proto.RemoteClean]},
			Adjustment{Param: "flash.intervention_ns", Unit: "ns", Before: before.InterventionNS, After: work.FlashTiming.InterventionNS,
				HWMetric: hwLat[proto.LocalDirtyRemote], SimBefore: first[proto.LocalDirtyRemote], SimAfter: simLat[proto.LocalDirtyRemote]},
		)
	}
	cal.Deltas = param.Diff(cfg, work)
	return cal, nil
}

func clampNS(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
