package core_test

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/osmodel"
	"flashsim/internal/param"
	"flashsim/internal/workload"
)

func TestStandardConfigsMatchThePaper(t *testing.T) {
	cfgs := core.StandardConfigs(4, true)
	if len(cfgs) != 7 {
		t.Fatalf("got %d configs, want 7", len(cfgs))
	}
	wantNames := []string{
		"SimOS-Mipsy 150MHz", "SimOS-Mipsy 225MHz", "SimOS-Mipsy 300MHz",
		"SimOS-MXS 150MHz",
		"Solo-Mipsy 150MHz", "Solo-Mipsy 225MHz", "Solo-Mipsy 300MHz",
	}
	for i, cfg := range cfgs {
		if cfg.Name != wantNames[i] {
			t.Errorf("config %d = %q, want %q", i, cfg.Name, wantNames[i])
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if cfg.JitterPct != 0 {
			t.Errorf("%s: simulators are deterministic", cfg.Name)
		}
	}
}

func TestUntunedDeficienciesPresent(t *testing.T) {
	m := core.SimOSMipsy(1, 150, true)
	if m.OS.TLBHandlerCycles != core.UntunedMipsyTLBCycles {
		t.Errorf("Mipsy TLB cost %d, want %d", m.OS.TLBHandlerCycles, core.UntunedMipsyTLBCycles)
	}
	if m.ModelInstrLatency {
		t.Error("Mipsy must not model instruction latencies")
	}
	if m.ModelL2InterfaceOccupancy {
		t.Error("untuned simulators lack the interface occupancy effect")
	}
	x := core.SimOSMXS(1, true)
	if x.OS.TLBHandlerCycles != core.UntunedMXSTLBCycles {
		t.Errorf("MXS TLB cost %d, want %d", x.OS.TLBHandlerCycles, core.UntunedMXSTLBCycles)
	}
	if x.MXS.ModelAddressInterlocks {
		t.Error("generic MXS lacks address interlocks")
	}
	s := core.SoloMipsy(1, 225, true)
	if s.OS.Kind != osmodel.Solo {
		t.Error("Solo OS kind")
	}
	if s.ClockMHz != 225 {
		t.Error("clock")
	}
}

func TestWithNUMA(t *testing.T) {
	cfg := core.WithNUMA(core.SimOSMipsy(4, 225, true))
	if cfg.Mem != machine.MemNUMA {
		t.Fatal("memory kind")
	}
	if !strings.Contains(cfg.Name, "NUMA") {
		t.Fatal("name")
	}
}

// TestConfigSpec: a spec resolves to its model's own constructor, the
// model's seed included, then takes its seed and deltas; and it refuses
// what names no machine: a missing or unknown base ("flash" among
// them), a processor count outside the registry's bounds, a clock other
// than 150 on hw or MXS, a path the registry does not know, and a
// machine Validate rejects.
func TestConfigSpec(t *testing.T) {
	for _, tc := range []struct {
		spec core.ConfigSpec
		want machine.Config
	}{
		{core.ConfigSpec{Base: "hw"}, hw.Config(1, true)},
		{core.ConfigSpec{Base: "simos-mipsy", MHz: 225, Procs: 4}, core.SimOSMipsy(4, 225, true)},
		{core.ConfigSpec{Base: "simos-mxs", MHz: 150}, core.SimOSMXS(1, true)},
		{core.ConfigSpec{Base: "solo-mipsy", MHz: 300, Procs: 2}, core.SoloMipsy(2, 300, true)},
	} {
		if got, err := tc.spec.Config(); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v: err %v, resolves\n%+v\nwant\n%+v", tc.spec, err, got, tc.want)
		}
	}
	spec := core.ConfigSpec{Base: "simos-mipsy", Seed: 7, Set: []param.Setting{{Path: "os.tlb.handler_cycles", Value: "65"}}}
	want := core.SimOSMipsy(1, 150, true)
	want.Seed, want.OS.TLBHandlerCycles = 7, 65
	if got, err := spec.Config(); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%+v: err %v, resolves\n%+v\nwant\n%+v", spec, err, got, want)
	}

	for _, tc := range []struct {
		spec core.ConfigSpec
		want string
	}{
		{core.ConfigSpec{}, "base config missing"},
		{core.ConfigSpec{Base: "flash"}, `unknown simulator "flash" (want hw, simos-mipsy, simos-mxs, solo-mipsy)`},
		{core.ConfigSpec{Base: "hw", MHz: 225}, "mhz: hw runs at 150, not 225"},
		{core.ConfigSpec{Base: "simos-mxs", MHz: 300}, "mhz: simos-mxs runs at 150, not 300"},
		{core.ConfigSpec{Base: "simos-mipsy", Procs: -1}, "procs: "},
		{core.ConfigSpec{Base: "simos-mipsy", Procs: 1025}, "procs: "},
		{core.ConfigSpec{Base: "simos-mipsy", Set: []param.Setting{{Path: "no.such.knob", Value: "1"}}}, "no.such.knob"},
		{core.ConfigSpec{Base: "simos-mipsy", MHz: 7}, "does not divide 900"},
	} {
		if _, err := tc.spec.Config(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err %v, want one that says %q", tc.spec, err, tc.want)
		}
	}
}

func TestReferenceAccessors(t *testing.T) {
	ref := core.NewReference(8, true)
	if ref.ConfigAt(8).Procs != 8 || !ref.Scaled() {
		t.Fatal("accessors")
	}
	cfg := ref.ConfigAt(2)
	if cfg.Procs != 2 {
		t.Fatal("resize")
	}
	full := core.NewReference(4, false)
	if full.Scaled() {
		t.Fatal("full-scale flagged scaled")
	}
}

func TestMeasurementStats(t *testing.T) {
	ref := core.NewReference(1, true)
	ref.Repeats = 3
	meas, err := ref.Measure(smallFFT(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(meas.Runs) != 3 {
		t.Fatalf("runs %d", len(meas.Runs))
	}
	if meas.Min > meas.Mean || meas.Mean > meas.Max {
		t.Fatalf("ordering: min %d mean %d max %d", meas.Min, meas.Mean, meas.Max)
	}
	if meas.Min == meas.Max {
		t.Fatal("jitter absent: all runs identical")
	}
	if meas.MeanSeconds() <= 0 {
		t.Fatal("seconds accessor")
	}
}

func TestCompareTrendMetrics(t *testing.T) {
	hw := core.Curve{Procs: []int{1, 2, 4}, Speedup: []float64{1, 2, 4}}
	sim := core.Curve{Label: "s", Procs: []int{1, 2, 4}, Speedup: []float64{1, 1.8, 3}}
	te := core.CompareTrend(hw, sim)
	if te.MaxErr < 0.24 || te.MaxErr > 0.26 {
		t.Fatalf("max err %f", te.MaxErr)
	}
	if te.FinalErr != te.MaxErr {
		t.Fatalf("final err %f", te.FinalErr)
	}
	if math.Abs(te.MeanErr-0.35/3) > 1e-12 {
		t.Fatalf("mean err %f, want the mean of 0, 0.1 and 0.25", te.MeanErr)
	}
	// No comparable point (the hardware speedup is 0 everywhere): no
	// error, not a NaN.
	none := core.CompareTrend(core.Curve{Procs: []int{1, 2}, Speedup: []float64{0, 0}}, sim)
	if none.MeanErr != 0 || none.MaxErr != 0 || none.FinalErr != 0 {
		t.Fatalf("empty comparison %+v, want all zero", none)
	}
}

func TestCurveAt(t *testing.T) {
	c := core.Curve{Procs: []int{1, 4}, Speedup: []float64{1, 3.5}}
	if c.At(4) != 3.5 || c.At(8) != 0 {
		t.Fatal("At lookup")
	}
}

// TestKnownDefectsComplete: a defect is data the registries can resolve.
// Its path is registered and carries a class, its base holds the good
// value and validates with and without the delta, and its workload is a
// workload registry name.
func TestKnownDefectsComplete(t *testing.T) {
	ds := core.KnownDefects()
	var classes []param.ErrorClass
	for _, d := range ds {
		if d.Name == "" || d.Description == "" {
			t.Errorf("defect %+v: no name or description", d)
		}
		if _, ok := param.Lookup(d.Delta.Path); !ok {
			t.Errorf("defect %s: path %s is not registered", d.Name, d.Delta.Path)
			continue
		}
		classes = append(classes, d.Delta.Class())
		if got, _ := param.Get(&d.Base, d.Delta.Path); got != d.Delta.Before {
			t.Errorf("defect %s: base holds %s = %v, delta starts at %v", d.Name, d.Delta.Path, got, d.Delta.Before)
		}
		if err := d.Base.Validate(); err != nil {
			t.Errorf("defect %s base: %v", d.Name, err)
		}
		inj, err := param.ApplyDeltas(d.Base, []param.Delta{d.Delta})
		if err == nil {
			err = inj.Validate()
		}
		if err != nil {
			t.Errorf("defect %s injected: %v", d.Name, err)
		}
		if _, err := workload.Lookup(d.Workload); err != nil {
			t.Errorf("defect %s: %v", d.Name, err)
		}
	}
	want := []param.ErrorClass{param.Bug, param.Bug, param.Omission, param.LackOfDetail, param.LackOfDetail, param.LackOfDetail}
	if !slices.Equal(classes, want) {
		t.Errorf("defect classes %v, want %v", classes, want)
	}
}
