package core_test

import (
	"math"
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/memsys"
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

// designHW is the hardware reference with FlashLite's design timing
// and no jitter: FlashLite timing is the only difference from the
// machine the calibrator measures, so a loop that recovers the truth
// lands on memsys.TrueTiming().
func designHW() machine.Config {
	cfg := hw.Config(4, true)
	cfg.Name = "FLASH (design timing)"
	cfg.FlashTiming = memsys.DesignTiming()
	cfg.JitterPct = 0
	return cfg
}

// TestCalibrationRoundTripsThroughRegistry is the delta/report
// consistency check: applying the deltas through the registry must land
// every knob exactly where the Adjustment log says the fitting loop
// left it, for both the TLB path (25/35 -> ~65) and the L2-occupancy
// path, and a knob that starts where the fit leaves it (the hardware's
// occupancy, already on) is logged as no change or not at all.
func TestCalibrationRoundTripsThroughRegistry(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	cal := core.NewCalibrator(ref)
	for _, cfg := range []machine.Config{
		core.SimOSMipsy(4, 150, true), // TLB 25 -> ~65, occupancy stays off
		core.SimOSMXS(4, true),        // TLB 35 -> ~65, occupancy turns on
		designHW(),                    // occupancy on from the start
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
			// Every row was measured before it was fitted.
			if a.SimBefore <= 0 {
				t.Errorf("%s: %s reports sim %v before fitting", cfg.Name, a.Param, a.SimBefore)
			}
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

// TestCalibrationRecoversTheHardware runs the loop where the truth is
// known: on the hardware with only its FlashLite timing reset to the
// design estimates, every fitted knob must land within 2 % of the
// hardware's own value. knownAbsorbed are the knobs it does not
// recover today: the router is never fitted, and the two interface
// crossings absorb its error. They must stay outside the band, so a
// loop that recovers them has to take them off the list.
func TestCalibrationRecoversTheHardware(t *testing.T) {
	knownAbsorbed := []string{"flash.router_ns", "flash.inbox_ns", "flash.outbox_ns"}
	start, truth := designHW(), hw.Config(4, true)
	c, err := core.NewCalibrator(core.NewReference(4, true)).Calibrate(start)
	if err != nil {
		t.Fatal(err)
	}
	tuned := c.Apply(start)
	errPct := func(path string) float64 {
		got, err := param.Get(&tuned, path)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := param.Get(&truth, path)
		w := deltaAsFloat(t, want)
		e := 100 * (deltaAsFloat(t, got) - w) / w
		t.Logf("%-24s fitted %8.2f, hardware %6.0f (%+.1f%%)", path, deltaAsFloat(t, got), w, e)
		return e
	}
	for _, path := range []string{"flash.bus_request_ns", "flash.bus_reply_ns", "flash.intervention_ns",
		"os.tlb.handler_cycles", "l2.transfer_ns"} {
		if e := errPct(path); math.Abs(e) > 2 {
			t.Errorf("%s: fitted %+.1f%% off the hardware, want within 2%%", path, e)
		}
	}
	for _, path := range knownAbsorbed {
		if e := errPct(path); math.Abs(e) <= 2 {
			t.Errorf("%s: now within 2%% of the hardware (%+.1f%%); take it off knownAbsorbed", path, e)
		}
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
	fit := []proto.Case{proto.LocalClean, proto.RemoteClean, proto.LocalDirtyRemote}
	simLat, err := cal.DepLatencies(tuned, fit...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range fit {
		simNS := simLat[pc]
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

// TestSpeedups: the hardware curve comes first and each of its points
// is the averaged measurement MeasureAt takes; each simulator point is
// that configuration's one machine.Run.
func TestSpeedups(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	fft := core.Workload{Name: "fft", Make: smallFFT}
	procs := []int{1, 2, 4}
	mipsy := core.SimOSMipsy(4, 225, true)
	curves, err := ref.Speedups(fft, procs, mipsy)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 || curves[1].Label != mipsy.Name {
		t.Fatalf("got %d curves, want the hardware's then %q's", len(curves), mipsy.Name)
	}
	hwC, simC := curves[0], curves[1]
	if hwC.Speedup[0] != 1 {
		t.Errorf("speedup at base point should be 1, got %f", hwC.Speedup[0])
	}
	if hwC.At(4) <= hwC.At(1) {
		t.Errorf("no speedup on hardware: %v", hwC.Speedup)
	}
	for i, p := range procs {
		meas, err := ref.MeasureAt(smallFFT(p), p)
		if err != nil {
			t.Fatal(err)
		}
		if hwC.Exec[i] != meas.Mean {
			t.Errorf("hardware at %dp: %d ticks, MeasureAt's mean is %d", p, hwC.Exec[i], meas.Mean)
		}
		cfg := mipsy
		cfg.Procs = p
		res, err := machine.Run(cfg, smallFFT(p))
		if err != nil {
			t.Fatal(err)
		}
		if simC.Exec[i] != res.Exec {
			t.Errorf("%s at %dp: %d ticks, machine.Run's is %d", mipsy.Name, p, simC.Exec[i], res.Exec)
		}
	}
	te := core.CompareTrend(hwC, simC)
	t.Logf("hw %v sim %v trend err max=%.2f", hwC.Speedup, simC.Speedup, te.MaxErr)
}
