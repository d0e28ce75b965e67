package core_test

import (
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
)

// differential_test cross-checks the Mipsy-class simulator against the
// internal/hw reference the way the paper does: not by demanding exact
// agreement, but by bounding the error band on the snbench
// dependent-load cases and requiring the *trends* — which case is
// slower than which, and which direction tuning moves a knob — to
// match. A simulator can be absolutely wrong yet still ordered right;
// these tests pin both properties separately.

// depLatencies measures all five cases on one simulator config.
func depLatencies(t *testing.T, cal *core.Calibrator, cfg machine.Config) map[proto.Case]float64 {
	t.Helper()
	out, err := cal.DepLatencies(cfg, core.DepCases...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDifferentialDependentLoadBand: the tuned Mipsy simulator must land
// within a 25% error band of the hardware reference on every one of the
// five dependent-load cases — including the dirty three-hop cases the
// calibrator does not fit directly.
func TestDifferentialDependentLoadBand(t *testing.T) {
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
	simLat := depLatencies(t, cal, tuned)
	for _, pc := range core.DepCases {
		rel := simLat[pc] / hwLat[pc]
		t.Logf("%-20v hw %6.0f ns, tuned sim %6.0f ns (rel %.2f)", pc, hwLat[pc], simLat[pc], rel)
		if rel < 0.75 || rel > 1.25 {
			t.Errorf("%v: outside the 25%% band: rel=%.2f", pc, rel)
		}
	}
}

// TestDifferentialCaseRankOrder: wherever the hardware clearly separates
// two protocol cases (by more than 15%), the untuned simulator must
// order them the same way. Rank agreement is the property the paper's
// trend arguments rest on, and it must hold even before calibration.
func TestDifferentialCaseRankOrder(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	cal := core.NewCalibrator(ref)
	hwLat, err := cal.DependentLoadLatencies()
	if err != nil {
		t.Fatal(err)
	}
	simLat := depLatencies(t, cal, core.SimOSMipsy(4, 150, true))
	for i, a := range core.DepCases {
		for _, b := range core.DepCases[i+1:] {
			// Only pairs the hardware separates decisively.
			if hwLat[a] >= hwLat[b]*0.85 && hwLat[b] >= hwLat[a]*0.85 {
				continue
			}
			hwFaster := hwLat[a] < hwLat[b]
			simFaster := simLat[a] < simLat[b]
			if hwFaster != simFaster {
				t.Errorf("rank inversion: hw says %v %s %v (%.0f vs %.0f ns), sim disagrees (%.0f vs %.0f ns)",
					a, cmp(hwFaster), b, hwLat[a], hwLat[b], simLat[a], simLat[b])
			}
		}
	}
	// The anchor ordering from Table 3 must hold outright.
	if !(hwLat[proto.LocalClean] < hwLat[proto.RemoteDirtyRemote]) {
		t.Errorf("hw: local-clean (%f) not faster than three-hop (%f)",
			hwLat[proto.LocalClean], hwLat[proto.RemoteDirtyRemote])
	}
	if !(simLat[proto.LocalClean] < simLat[proto.RemoteDirtyRemote]) {
		t.Errorf("sim: local-clean (%f) not faster than three-hop (%f)",
			simLat[proto.LocalClean], simLat[proto.RemoteDirtyRemote])
	}
}

func cmp(faster bool) string {
	if faster {
		return "<"
	}
	return ">"
}

// TestDifferentialTLBTrendDirection: the untuned Mipsy model
// underestimates the TLB-refill cost; calibration must move it *toward*
// the hardware value, never past symmetric overshoot, and the tuned
// residual must be smaller than the untuned one. This is the "closing
// the loop" direction check on the knob the paper tunes first.
func TestDifferentialTLBTrendDirection(t *testing.T) {
	ref := core.NewReference(4, true)
	ref.Repeats = 2
	cal := core.NewCalibrator(ref)
	cfg := core.SimOSMipsy(4, 150, true)
	c, err := cal.Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuned := c.Apply(cfg)

	hwCyc, err := cal.TLBCycles(ref.ConfigAt(1))
	if err != nil {
		t.Fatal(err)
	}
	untunedCyc, err := cal.TLBCycles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tunedCyc, err := cal.TLBCycles(tuned)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TLB refill cycles: hw %.1f, untuned %.1f, tuned %.1f", hwCyc, untunedCyc, tunedCyc)
	if untunedCyc >= hwCyc {
		t.Fatalf("untuned model should underestimate the TLB cost: untuned %.1f >= hw %.1f", untunedCyc, hwCyc)
	}
	if tunedCyc <= untunedCyc {
		t.Errorf("tuning moved the TLB cost the wrong way: %.1f -> %.1f (hw %.1f)", untunedCyc, tunedCyc, hwCyc)
	}
	before, after := hwCyc-untunedCyc, hwCyc-tunedCyc
	if after < 0 {
		after = -after
	}
	if after >= before {
		t.Errorf("tuning did not shrink the TLB error: |%.1f| -> |%.1f| cycles", before, after)
	}
}
