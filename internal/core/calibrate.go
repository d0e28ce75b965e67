package core

import (
	"context"
	"fmt"
	"math"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/proto"
	"flashsim/internal/runner"
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

// probe executes a single simulator run through the reference's pool.
func (c *Calibrator) probe(cfg machine.Config, prog emitter.Program) (machine.Result, error) {
	return runner.RunOne(c.Ref.Pool, runner.Job{Config: cfg, Prog: prog})
}

// HWTLBCycles measures the reference TLB-refill cost with the snbench
// TLB timer.
func (c *Calibrator) HWTLBCycles() (float64, error) {
	meas, err := c.Ref.MeasureAt(snbench.TLBTimer(0, 0, 0), 1)
	if err != nil {
		return 0, err
	}
	// Use the median-ish first run; the metric needs barrier releases.
	cfg := c.Ref.ConfigAt(1)
	return snbench.TLBHandlerCycles(meas.Runs[0], cfg.ClockMHz, 0, 0, 0), nil
}

// SimTLBCycles measures a simulator configuration's TLB-refill cost with
// the snbench TLB timer.
func (c *Calibrator) SimTLBCycles(cfg machine.Config) (float64, error) {
	cfg.Procs = 1
	res, err := c.probe(cfg, snbench.TLBTimer(0, 0, 0))
	if err != nil {
		return 0, err
	}
	return snbench.TLBHandlerCycles(res, cfg.ClockMHz, 0, 0, 0), nil
}

// HWRestartNS measures the reference back-to-back load throughput with
// the snbench restart-time test (ns per load).
func (c *Calibrator) HWRestartNS() (float64, error) {
	meas, err := c.Ref.MeasureAt(snbench.Restart(0), 1)
	if err != nil {
		return 0, err
	}
	return snbench.ThroughputNSPerLoad(meas.Runs[0], 0), nil
}

func (c *Calibrator) simRestartNS(cfg machine.Config) (float64, error) {
	cfg.Procs = 1
	res, err := c.probe(cfg, snbench.Restart(0))
	if err != nil {
		return 0, err
	}
	return snbench.ThroughputNSPerLoad(res, 0), nil
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
// reference (ns per load), batching every case's repeats through the
// pool.
func (c *Calibrator) DependentLoadLatencies() (map[proto.Case]float64, error) {
	var jobs []runner.Job
	offs := make([]int, len(DepCases))
	for i, pc := range DepCases {
		offs[i] = len(jobs)
		jobs = append(jobs, c.Ref.measureJobs(snbench.DependentLoads(pc, 0), snbench.CaseProcs(pc))...)
	}
	results, err := c.Ref.Pool.Run(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("dependent loads: %w", err)
	}
	out := make(map[proto.Case]float64, len(DepCases))
	for i, pc := range DepCases {
		end := len(results)
		if i+1 < len(DepCases) {
			end = offs[i+1]
		}
		meas := measurementFrom(results[offs[i]:end])
		out[pc] = snbench.LoadLatencyNS(pc, machine.Result{Exec: meas.Mean, BarrierReleases: meas.Runs[0].BarrierReleases}, 0)
	}
	return out, nil
}

// SimDepLatency measures one Table 3 dependent-load case on a simulator
// configuration (ns per load).
func (c *Calibrator) SimDepLatency(cfg machine.Config, pc proto.Case) (float64, error) {
	cfg.Procs = snbench.CaseProcs(pc)
	res, err := c.probe(cfg, snbench.DependentLoads(pc, 0))
	if err != nil {
		return 0, err
	}
	return snbench.LoadLatencyNS(pc, res, 0), nil
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
		hwC, err := c.HWTLBCycles()
		if err != nil {
			return cal, err
		}
		before := float64(work.OS.TLBHandlerCycles)
		simBefore, err := c.SimTLBCycles(work)
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
			simC, err = c.SimTLBCycles(work)
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
		hwT, err := c.HWRestartNS()
		if err != nil {
			return cal, err
		}
		probe := work
		probe.ModelL2InterfaceOccupancy = false
		simBefore, err := c.simRestartNS(probe)
		if err != nil {
			return cal, err
		}
		simT := simBefore
		if simT < hwT*0.97 {
			work.ModelL2InterfaceOccupancy = true
			for round := 0; round < maxRounds && math.Abs(hwT-simT) > 3; round++ {
				simT, err = c.simRestartNS(work)
				if err != nil {
					return cal, err
				}
				work.L2TransferNS += hwT - simT
				if work.L2TransferNS < 0 {
					work.L2TransferNS = 0
				}
			}
			cal.Report = append(cal.Report, Adjustment{
				Param: "l2.model_interface_occupancy", Unit: "bool",
				Before: 0, After: 1,
				HWMetric: hwT, SimBefore: simBefore, SimAfter: simT,
			})
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
		var simLC, simRC, simLDR float64
		for round := 0; round < maxRounds; round++ {
			simLC, err = c.SimDepLatency(work, proto.LocalClean)
			if err != nil {
				return cal, err
			}
			simRC, err = c.SimDepLatency(work, proto.RemoteClean)
			if err != nil {
				return cal, err
			}
			simLDR, err = c.SimDepLatency(work, proto.LocalDirtyRemote)
			if err != nil {
				return cal, err
			}
			dLC := hwLat[proto.LocalClean] - simLC
			dRC := hwLat[proto.RemoteClean] - simRC
			dLDR := hwLat[proto.LocalDirtyRemote] - simLDR
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
				HWMetric: hwLat[proto.LocalClean], SimBefore: 0, SimAfter: simLC},
			Adjustment{Param: "flash.inbox_ns", Unit: "ns", Before: before.InboxNS, After: work.FlashTiming.InboxNS,
				HWMetric: hwLat[proto.RemoteClean], SimBefore: 0, SimAfter: simRC},
			Adjustment{Param: "flash.intervention_ns", Unit: "ns", Before: before.InterventionNS, After: work.FlashTiming.InterventionNS,
				HWMetric: hwLat[proto.LocalDirtyRemote], SimBefore: 0, SimAfter: simLDR},
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
