package core_test

import (
	"math"
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/proto"
)

func smallFFT(procs int) emitter.Program {
	return apps.FFT(apps.FFTOpts{LogN: 12, Procs: procs, TLBBlocked: true, Prefetch: true})
}

// deltaValue returns the post-calibration value of a registry path, if
// the calibration touched it.
func deltaValue(c core.Calibration, path string) (any, bool) {
	for _, d := range c.Deltas {
		if d.Path == path {
			return d.After, true
		}
	}
	return nil, false
}

// calTLBCycles extracts the calibrated TLB-refill cost from the delta
// list (the calibration must have changed it for these tests to mean
// anything).
func calTLBCycles(t *testing.T, c core.Calibration) uint64 {
	t.Helper()
	v, ok := deltaValue(c, "os.tlb.handler_cycles")
	if !ok {
		t.Fatal("calibration did not adjust os.tlb.handler_cycles")
	}
	return v.(uint64)
}

func TestCalibratorFixesTLBCost(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	cal := core.NewCalibrator(ref)
	cfg := core.SimOSMipsy(4, 150, true)
	c, err := cal.Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tlb := calTLBCycles(t, c); tlb < 55 || tlb > 75 {
		t.Errorf("calibrated TLB handler = %d cycles, want ~65", tlb)
	}
	// Mipsy has blocking reads, so its independent-load throughput is
	// already *slower* than hardware; the interface occupancy is
	// correctly left off and its latency is absorbed into bus timing.
	if _, changed := deltaValue(c, "l2.model_interface_occupancy"); changed {
		t.Error("occupancy should not be enabled for a blocking-read model")
	}
	for _, a := range c.Report {
		t.Logf("adjust %v", a)
	}
}

func TestCalibratorEnablesOccupancyForMXS(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	cal := core.NewCalibrator(ref)
	cfg := core.SimOSMXS(4, true)
	c, err := cal.Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tlb := calTLBCycles(t, c); tlb < 55 || tlb > 75 {
		t.Errorf("calibrated TLB handler = %d cycles, want ~65 (from 35)", tlb)
	}
	if v, ok := deltaValue(c, "l2.model_interface_occupancy"); !ok || v != true {
		t.Error("calibration did not enable L2 interface occupancy for the out-of-order model")
	}
	for _, a := range c.Report {
		t.Logf("adjust %v", a)
	}
}

// deltaAsFloat renders a registry delta value numerically for
// comparison against the float64 Adjustment log.
func deltaAsFloat(t *testing.T, v any) float64 {
	t.Helper()
	switch x := v.(type) {
	case bool:
		if x {
			return 1
		}
		return 0
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	default:
		t.Fatalf("unexpected delta value type %T", v)
		return 0
	}
}

// TestCalibrationRoundTripsThroughRegistry is the delta/report
// consistency check: applying the deltas through the registry must land
// every knob exactly where the Adjustment log says the fitting loop
// left it, for both the TLB path (25/35 -> ~65) and the L2-occupancy
// path.
func TestCalibrationRoundTripsThroughRegistry(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	cal := core.NewCalibrator(ref)
	for _, cfg := range []machine.Config{
		core.SimOSMipsy(4, 150, true), // TLB 25 -> ~65, occupancy stays off
		core.SimOSMXS(4, true),        // TLB 35 -> ~65, occupancy turns on
	} {
		c, err := cal.Calibrate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tuned := c.Apply(cfg)
		if tuned.Name != cfg.Name+" (tuned)" {
			t.Errorf("%s: Apply did not tag the name: %q", cfg.Name, tuned.Name)
		}
		// Every delta must be visible in the tuned config via the registry.
		for _, d := range c.Deltas {
			got, err := param.Get(&tuned, d.Path)
			if err != nil {
				t.Fatalf("%s: delta path %s not gettable: %v", cfg.Name, d.Path, err)
			}
			if got != d.After {
				t.Errorf("%s: %s = %v after Apply, delta says %v", cfg.Name, d.Path, got, d.After)
			}
		}
		// Every real adjustment in the report must appear as a delta
		// with the same landing value, and no-change report lines
		// (Before == After) must not.
		for _, a := range c.Report {
			v, changed := deltaValue(c, a.Param)
			if a.Before == a.After {
				if changed {
					t.Errorf("%s: report says %s unchanged but a delta exists", cfg.Name, a.Param)
				}
				continue
			}
			if !changed {
				t.Errorf("%s: report adjusts %s but no delta records it", cfg.Name, a.Param)
				continue
			}
			if got := deltaAsFloat(t, v); math.Abs(got-a.After) > 1e-9 {
				t.Errorf("%s: %s delta lands at %v, report says %v", cfg.Name, a.Param, got, a.After)
			}
		}
		// The rendered diff is the tuning report: each changed path on
		// its own line.
		diff := c.RenderDiff()
		for _, d := range c.Deltas {
			if !strings.Contains(diff, d.Path) {
				t.Errorf("%s: rendered diff omits %s:\n%s", cfg.Name, d.Path, diff)
			}
		}
		t.Logf("%s tuning diff:\n%s", cfg.Name, diff)
	}
}

func TestCalibratedSimulatorMatchesTable3(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	cal := core.NewCalibrator(ref)
	cfg := core.SimOSMipsy(4, 150, true)
	c, err := cal.Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuned := c.Apply(cfg)
	hwLat, err := cal.DependentLoadLatencies()
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []proto.Case{proto.LocalClean, proto.RemoteClean, proto.LocalDirtyRemote} {
		simNS, err := cal.SimDepLatency(tuned, pc)
		if err != nil {
			t.Fatal(err)
		}
		rel := simNS / hwLat[pc]
		t.Logf("%-20v tuned sim %6.0f ns, hw %6.0f ns (rel %.2f)", pc, simNS, hwLat[pc], rel)
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("%v: tuned latency off by more than 10%%: rel=%.2f", pc, rel)
		}
	}
}

func TestStudyComparesAgainstReference(t *testing.T) {
	ref := core.NewReference(1, true)
	ref.Repeats = 2
	study := core.NewStudy(ref, core.SimOSMipsy(1, 225, true), core.SoloMipsy(1, 225, true))
	res, err := study.Compare([]core.Workload{{Name: "fft", Make: smallFFT}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows["fft"]) != 2 {
		t.Fatalf("expected 2 entries, got %d", len(res.Rows["fft"]))
	}
	for _, e := range res.Rows["fft"] {
		t.Logf("%s: rel %.2f", e.Config, e.Relative)
		if e.Relative <= 0 || e.Relative > 5 {
			t.Errorf("%s: implausible relative time %.2f", e.Config, e.Relative)
		}
	}
}

func TestTrendAnalyzerSpeedup(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 1
	ta := core.NewTrendAnalyzer(ref)
	hwC, err := ta.HardwareSpeedup(core.Workload{Name: "fft", Make: smallFFT}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if hwC.Speedup[0] != 1 {
		t.Errorf("speedup at base point should be 1, got %f", hwC.Speedup[0])
	}
	if hwC.At(4) <= hwC.At(1) {
		t.Errorf("no speedup on hardware: %v", hwC.Speedup)
	}
	simC, err := ta.SimSpeedup(core.SimOSMipsy(4, 225, true), core.Workload{Name: "fft", Make: smallFFT}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	te := core.CompareTrend(hwC, simC)
	t.Logf("hw %v sim %v trend err max=%.2f", hwC.Speedup, simC.Speedup, te.MaxErr)
}
