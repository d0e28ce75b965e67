package harness_test

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/harness"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/osmodel"
	"flashsim/internal/param"
	"flashsim/internal/proto"
	"flashsim/internal/runner"
	"flashsim/internal/snbench"
)

// quick is the one pooled, memoizing quick-scale session every test
// without an override of its own shares, so a run any of them needs is
// paid for once. Its worksweep matrix is one cell: the 32-128-node
// default is minutes of simulation, and one cell walks the same code.
var quick = sync.OnceValue(func() *harness.Session {
	store, err := runner.NewStore("")
	if err != nil {
		panic(err)
	}
	s := harness.NewSessionWithPool(harness.ScaleQuick, runner.New(runner.DefaultWorkers(), store))
	s.SweepNames, s.SweepSizes = []string{"gups"}, []int{4}
	return s
})

// shapes are the per-row assertions of TestExperimentsTable, beyond
// "runs and renders".
var shapes = map[string]func(t *testing.T, data any, text string){
	"table3":  func(t *testing.T, d any, text string) { checkTable3(t, d.(harness.Table3Data), text) },
	"figure1": func(t *testing.T, d any, text string) { checkFigure1(t, d.(core.CompareResult), text) },
	"figure5": func(t *testing.T, d any, text string) { checkFigure5(t, d.([]core.Curve)) },
	"figure7": func(t *testing.T, d any, text string) { checkFigure7(t, d.([]core.Curve)) },
	"tlb":     func(t *testing.T, d any, text string) { checkTLBCost(t, d.(harness.TLBCostData), text) },
	"trace":   func(t *testing.T, d any, text string) { checkTraceReplay(t, d.(harness.TraceReplayData), 4, text) },
	"decompose": func(t *testing.T, d any, text string) {
		checkDecompose(t, d.([]harness.Decomposition), text)
	},
	"worksweep": func(t *testing.T, d any, text string) {
		sweep := d.(harness.WorkloadSweepData)
		if len(sweep.Trend) != 1 || sweep.Trend[0].Workload != "GUPS" {
			t.Errorf("one-cell sweep returned %+v", sweep)
		}
	},
}

// TestExperimentsTable runs the evaluation the way `flashsim validate
// -all -quick` does: every row of the table, in order, on one session.
func TestExperimentsTable(t *testing.T) {
	s := quick()
	seen := make(map[string]bool)
	for _, x := range harness.Experiments {
		if x.Name == "" || x.Title == "" || seen[x.Name] {
			t.Errorf("row %+v: empty or repeated name/title", x)
		}
		seen[x.Name] = true
		t.Run(x.Name, func(t *testing.T) {
			data, text, err := x.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if data == nil || strings.TrimSpace(text) == "" {
				t.Fatalf("data %v, text %q", data, text)
			}
			if check := shapes[x.Name]; check != nil {
				check(t, data, text)
			}
		})
	}
	for name := range shapes {
		if !seen[name] {
			t.Errorf("shape check for %q names no row of the table", name)
		}
	}
	found, err := harness.Find("tlb", "figure1")
	if err != nil || len(found) != 2 || found[0].Name != "tlb" || found[1].Name != "figure1" {
		t.Errorf("Find(tlb, figure1) = %v, %v", found, err)
	}
	if _, err := harness.Find("figure1", "figure8"); err == nil || !strings.Contains(err.Error(), "worksweep") {
		t.Errorf("Find of an unknown name: %v; want an error listing the table", err)
	}
}

// checkDecompose: every walk of the row telescopes in ticks, in both
// orders, and the paper's findings come out of the loop as ranks that
// hold whichever way the registry is crossed.
func checkDecompose(t *testing.T, bars []harness.Decomposition, text string) {
	if len(bars) != 12 || !strings.Contains(text, "lack-of-detail") {
		t.Fatalf("%d bars, want 3 simulators x 4 workloads; text:\n%s", len(bars), text)
	}
	for _, d := range bars {
		n := len(d.Steps)
		if len(d.Forward) != n+1 || len(d.Reverse) != n+1 || d.Forward[0] != d.Reverse[0] || d.Forward[n] != d.Reverse[n] {
			t.Fatalf("%s x %s: walks %v and %v over %d paths do not share their ends", d.Config, d.Workload, d.Forward, d.Reverse, n)
		}
		var fwd, rev int64
		for i := 0; i < n; i++ {
			fwd += int64(d.Forward[i+1]) - int64(d.Forward[i])
			rev += int64(d.Reverse[i+1]) - int64(d.Reverse[i])
		}
		if gap := int64(d.Forward[n]) - int64(d.Forward[0]); fwd != gap || rev != gap {
			t.Errorf("%s x %s: steps sum to %d / %d ticks, the gap is %d", d.Config, d.Workload, fwd, rev, gap)
		}
	}
	bar := func(config, workload string) harness.Decomposition {
		i := slices.IndexFunc(bars, func(d harness.Decomposition) bool { return d.Config == config && d.Workload == workload })
		if i < 0 {
			t.Fatalf("no bar %s x %s", config, workload)
		}
		return bars[i]
	}
	share := func(d harness.Decomposition, path string) (fwd, rev float64) {
		i := slices.IndexFunc(d.Steps, func(st param.Delta) bool { return st.Path == path })
		if i < 0 {
			t.Fatalf("%s x %s: no step %s", d.Config, d.Workload, path)
		}
		return d.Share(i)
	}
	within := func(d harness.Decomposition, path string, lo, hi float64) {
		if fwd, rev := share(d, path); fwd < lo || fwd > hi || rev < lo || rev > hi {
			t.Errorf("%s x %s: %s carries %+.2f / %+.2f of the gap, want [%v, %v] in both orders", d.Config, d.Workload, path, fwd, rev, lo, hi)
		}
	}
	inf := math.Inf(1)
	// Page colouring: Solo's allocator is what Ocean sees, more than any
	// other path.
	ocean := bar("Solo-Mipsy 225MHz", "Ocean")
	osF, osR := share(ocean, "os.kind")
	for i, st := range ocean.Steps {
		if fwd, rev := ocean.Share(i); st.Path != "os.kind" && (fwd >= osF || rev >= osR) {
			t.Errorf("Solo x Ocean: %s carries %+.2f / %+.2f, os.kind %+.2f / %+.2f", st.Path, fwd, rev, osF, osR)
		}
	}
	within(bar("SimOS-MXS 150MHz", "LU"), "mxs.model_address_interlocks", 0.95, inf)
	// The best bar of Figure 1 is two errors cancelling ...
	within(bar("SimOS-Mipsy 225MHz", "LU"), "cpu.clock_mhz", 1, inf)
	within(bar("SimOS-Mipsy 225MHz", "LU"), "cpu.kind", -inf, -0.3)
	// ... and the worst is the same two adding up.
	within(bar("SimOS-Mipsy 225MHz", "Radix(r=256)"), "cpu.clock_mhz", 0, inf)
	within(bar("SimOS-Mipsy 225MHz", "Radix(r=256)"), "cpu.kind", 0, inf)
}

func TestTable1Renders(t *testing.T) {
	out := harness.Table1()
	for _, want := range []string{"150 MHz", "hypercube", "dynamic pointer allocation", "140 ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

// TestTable2Renders pins Table 2 at both scales: its scaled column is
// the registry's defaults, so a default that moves shows here.
func TestTable2Renders(t *testing.T) {
	const head = "Table 2: SPLASH-2 problem sizes (paper -> scaled)\n"
	for _, c := range []struct {
		scale harness.Scale
		want  string
	}{
		{harness.ScaleFull, head +
			"  FFT          1M points                    64K points\n" +
			"  Radix-Sort   2M keys                      256K keys\n" +
			"  LU           768x768 matrix, 16x16 blocks 160x160, 16x16 blocks\n" +
			"  Ocean        514x514 grid                 130x130 grid\n"},
		{harness.ScaleQuick, head +
			"  FFT          1M points                    4K points (quick)\n" +
			"  Radix-Sort   2M keys                      32K keys (quick)\n" +
			"  LU           768x768 matrix, 16x16 blocks 96x96, 16x16 blocks (quick)\n" +
			"  Ocean        514x514 grid                 66x66 grid (quick)\n"},
	} {
		if got := harness.Table2(c.scale); got != c.want {
			t.Errorf("Table2(%v):\n%s\nwant:\n%s", c.scale, got, c.want)
		}
	}
}

func TestTable3ShapeQuick(t *testing.T) {
	d, text, err := quick().Table3()
	if err != nil {
		t.Fatal(err)
	}
	checkTable3(t, d, text)
}

func checkTable3(t *testing.T, d harness.Table3Data, text string) {
	if !strings.Contains(text, "local-clean") {
		t.Error("missing protocol cases in render")
	}
	// Tuned FlashLite must match the hardware closely on every case.
	for _, pc := range d.Cases {
		rel := d.Tuned[pc] / d.HW[pc]
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("%v tuned rel %.2f", pc, rel)
		}
	}
	// The Table 3 ordering must hold on the hardware column.
	if !(d.HW[proto.LocalClean] < d.HW[proto.RemoteClean]) {
		t.Error("local clean not fastest")
	}
	if !(d.HW[proto.RemoteDirtyRemote] > d.HW[proto.RemoteClean]) {
		t.Error("three-hop case not slowest remote")
	}
}

func TestFigure1ShapeQuick(t *testing.T) {
	res, text, err := quick().Figure1()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure1(t, res, text)
}

func checkFigure1(t *testing.T, res core.CompareResult, text string) {
	if text == "" || len(res.Configs) != 7 {
		t.Fatalf("render/configs: %d configs", len(res.Configs))
	}
	// Paper shape: the simulators do not agree with the hardware; the
	// worst error is substantial.
	if res.MaxAbsError() < 0.15 {
		t.Errorf("initial comparison suspiciously accurate: max err %.2f", res.MaxAbsError())
	}
	rel := func(w, config string) float64 {
		e, ok := res.Entry(w, config)
		if !ok {
			t.Fatalf("no bar %s x %s", config, w)
		}
		return e.Relative
	}
	// Faster Mipsy clocks must predict faster times for every app.
	for _, w := range res.Order {
		if r150, r300 := rel(w, "SimOS-Mipsy 150MHz"), rel(w, "SimOS-Mipsy 300MHz"); r300 >= r150 {
			t.Errorf("%s: 300MHz (%.2f) not faster than 150MHz (%.2f)", w, r300, r150)
		}
	}
	// The paper's findings on this figure, each with margin at quick
	// scale. Solo's allocator does no page colouring, so Ocean's grids
	// conflict in the L2 (1.88 here).
	if r := rel("Ocean", "Solo-Mipsy 150MHz"); r < 1.5 {
		t.Errorf("Solo-Mipsy 150MHz Ocean at %.2f, want >= 1.5", r)
	}
	// Mipsy does not simulate multiply/divide latency, so Radix is the
	// most optimistic bar of every Mipsy column, with or without SimOS.
	for _, config := range res.Configs {
		if !strings.Contains(config, "Mipsy") {
			continue
		}
		lowest := res.Order[0]
		for _, w := range res.Order {
			if rel(w, config) < rel(lowest, config) {
				lowest = w
			}
		}
		if !strings.HasPrefix(lowest, "Radix") {
			t.Errorf("%s: the lowest bar is %s (%.2f), want Radix", config, lowest, rel(lowest, config))
		}
	}
	// MXS is optimistic on every workload (0.80-0.95 here).
	for _, w := range res.Order {
		if r := rel(w, "SimOS-MXS 150MHz"); r >= 1 {
			t.Errorf("SimOS-MXS 150MHz %s at %.2f, want below 1.0", w, r)
		}
	}
}

func TestExperimentTLBCostQuick(t *testing.T) {
	d, text, err := quick().ExperimentTLBCost()
	if err != nil {
		t.Fatal(err)
	}
	checkTLBCost(t, d, text)
}

func checkTLBCost(t *testing.T, d harness.TLBCostData, text string) {
	if !strings.Contains(text, "FLASH hardware") {
		t.Error("render")
	}
	if d.HWCycles < 55 || d.HWCycles > 75 {
		t.Errorf("hardware TLB cost %.1f, want ~65", d.HWCycles)
	}
	if d.MipsyCycles > d.MXSCycles || d.MXSCycles > d.HWCycles {
		t.Errorf("ordering: mipsy %.1f <= mxs %.1f <= hw %.1f violated",
			d.MipsyCycles, d.MXSCycles, d.HWCycles)
	}
}

// curve returns the curve of a trend study with the given label.
func curve(t *testing.T, curves []core.Curve, label string) core.Curve {
	t.Helper()
	i := slices.IndexFunc(curves, func(c core.Curve) bool { return c.Label == label })
	if i < 0 {
		t.Fatalf("no curve %q", label)
	}
	return curves[i]
}

// checkFigure5: the paper's FFT trend study, with margins from the
// quick scale.
func checkFigure5(t *testing.T, curves []core.Curve) {
	hw := curve(t, curves, "FLASH 150MHz")
	// The over-driven in-order model invents contention and wrecks
	// the trend (2.11 against the hardware's 4.40 at 16p here).
	if m, h := curve(t, curves, "SimOS-Mipsy 300MHz (tuned)").At(16), hw.At(16); m > 0.9*h {
		t.Errorf("SimOS-Mipsy 300MHz speedup %.2f at 16p, want at least 10%% below the hardware's %.2f", m, h)
	}
	// MXS tracks the hardware at every count: the paper reads within
	// 3%, the worst here is 3.2% (16p).
	mxs := curve(t, curves, "SimOS-MXS 150MHz (tuned)")
	for _, p := range hw.Procs {
		if m, h := mxs.At(p), hw.At(p); math.Abs(m-h) > 0.05*h {
			t.Errorf("SimOS-MXS speedup %.2f at %dp, want within 5%% of the hardware's %.2f", m, p, h)
		}
	}
}

// checkFigure7: unplaced Radix-Sort, with margins from the quick scale.
func checkFigure7(t *testing.T, curves []core.Curve) {
	// NUMA has no MAGIC occupancy, so it misses the node-0 hotspot and
	// predicts far too good a speedup (12.55 against 9.30 at 16p here).
	if n, h := curve(t, curves, "NUMA").At(16), curve(t, curves, "FLASH 150MHz").At(16); n < 1.2*h {
		t.Errorf("NUMA speedup %.2f at 16p, want at least 20%% above the hardware's %.2f", n, h)
	}
	// Tuning the memory system barely moves the hotspot (4.0% / 2.4%
	// apart here).
	tuned, untuned := curve(t, curves, "Tuned FlashLite"), curve(t, curves, "Untuned FlashLite")
	for _, p := range []int{8, 16} {
		if a, b := tuned.At(p), untuned.At(p); math.Abs(a-b) > 0.05*b {
			t.Errorf("tuned FlashLite %.2f and untuned %.2f at %dp, want within 5%%", a, b, p)
		}
	}
}

func TestWorkloadFactories(t *testing.T) {
	s := harness.ScaleQuick
	for _, w := range append(s.InitialApps(), s.FixedApps()...) {
		prog := w.Make(2)
		if prog.Threads != 2 {
			t.Errorf("%s: threads %d", w.Name, prog.Threads)
		}
	}
}

// TestOverrideReproducesTLBCorrection is the paper's X1 fix as a pure
// parameter override: forcing os.tlb.handler_cycles=65 on every
// simulator makes the untuned models measure the hardware's TLB-refill
// cost, with no code changes.
func TestOverrideReproducesTLBCorrection(t *testing.T) {
	s := harness.NewSession(harness.ScaleQuick)
	s.Override = func(cfg machine.Config) (machine.Config, error) {
		if cfg.OS.TLBHandlerCycles == 0 {
			return cfg, nil // Solo keeps no TLB; nothing to correct
		}
		err := param.SetValue(&cfg, "os.tlb.handler_cycles", "65")
		return cfg, err
	}
	d, _, err := s.ExperimentTLBCost()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{"Mipsy": d.MipsyCycles, "MXS": d.MXSCycles} {
		if got < d.HWCycles-10 || got > d.HWCycles+10 {
			t.Errorf("%s with override measures %.1f cycles, hardware %.1f", name, got, d.HWCycles)
		}
	}

	// The override feeds the untuned study configs too.
	cfgs, err := s.UntunedConfigs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if cfg.OS.TLBHandlerCycles != 0 && cfg.OS.TLBHandlerCycles != 65 {
			t.Errorf("%s: override not applied (tlb=%d)", cfg.Name, cfg.OS.TLBHandlerCycles)
		}
	}
}

// TestTuningDiffsRender checks the tuning row's four sections per
// simulator, and that the absorbed table sets every knob the loop owns
// against the hardware: the never-fitted router at 12 vs. 25 ns is
// marked, and so is Solo's TLB refill, which the loop skips.
func TestTuningDiffsRender(t *testing.T) {
	out, err := quick().TuningDiffs(1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := quick().UntunedConfigs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		block := out[strings.Index(out, cfg.Name+": fitting log"):]
		block = block[:strings.Index(block, cfg.Name+": dependent loads")]
		for _, want := range []string{"os.tlb.handler_cycles", cfg.Name + ": registry diff", cfg.Name + ": absorbed"} {
			if !strings.Contains(block, want) {
				t.Errorf("%s: tuning block missing %q:\n%s", cfg.Name, want, block)
			}
		}
		absorbed := block[strings.Index(block, cfg.Name+": absorbed"):]
		for _, p := range param.All() {
			owned := strings.HasPrefix(p.Path, "flash.") ||
				slices.Contains([]string{"os.tlb.handler_cycles", "l2.model_interface_occupancy", "l2.transfer_ns"}, p.Path)
			if strings.Contains(absorbed, "  "+p.Path+" ") != owned {
				t.Errorf("%s: absorbed table lists %s: %v, want %v", cfg.Name, p.Path, !owned, owned)
			}
		}
		router := regexp.MustCompile(`(?m)^  flash\.router_ns +12 +25 +-13  not fitted$`)
		if !router.MatchString(absorbed) {
			t.Errorf("%s: the router is not marked unfitted at 12 vs. 25 ns:\n%s", cfg.Name, absorbed)
		}
		tlb := regexp.MustCompile(`(?m)^  os\.tlb\.handler_cycles .*not fitted$`)
		if solo := cfg.OS.Kind == osmodel.Solo; tlb.MatchString(absorbed) != solo {
			t.Errorf("%s: TLB refill marked not fitted: %v, want %v:\n%s", cfg.Name, !solo, solo, absorbed)
		}
	}
}

func TestTunedConfigsCached(t *testing.T) {
	s := quick()
	a, err := s.TunedConfigs(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.TunedConfigs(4) // second call reuses calibrations
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("config counts %d %d", len(a), len(b))
	}
	for i := range a {
		if !strings.HasSuffix(a[i].Name, "(tuned)") {
			t.Errorf("config %q not marked tuned", a[i].Name)
		}
		if b[i].Procs != 4 {
			t.Errorf("config %q procs %d", b[i].Name, b[i].Procs)
		}
	}
}

// TestOverrideNeverTouchesHardwareReference pins the asymmetry the
// Override doc promises: the hook rewrites every simulator
// configuration an experiment builds, but the machine being predicted
// stays fixed. A grossly wrong override must move the simulators'
// measurements while the hardware reference keeps both its canonical
// parameters and its measured numbers.
func TestOverrideNeverTouchesHardwareReference(t *testing.T) {
	baseline, _, err := quick().ExperimentTLBCost()
	if err != nil {
		t.Fatal(err)
	}

	s := harness.NewSession(harness.ScaleQuick)
	calls := 0
	s.Override = func(cfg machine.Config) (machine.Config, error) {
		calls++
		if cfg.OS.TLBHandlerCycles == 0 {
			return cfg, nil // Solo keeps no TLB
		}
		err := param.SetValue(&cfg, "os.tlb.handler_cycles", "500")
		return cfg, err
	}

	d, _, err := s.ExperimentTLBCost()
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("override hook never invoked; the guarantee is vacuous")
	}
	if d.HWCycles != baseline.HWCycles {
		t.Errorf("hardware measurement moved under a simulator override: %.1f, baseline %.1f",
			d.HWCycles, baseline.HWCycles)
	}
	if d.MipsyCycles < 400 {
		t.Errorf("override did not reach the simulator: Mipsy measures %.1f cycles, want ~500", d.MipsyCycles)
	}

	// The reference's configuration bytes are untouched: still exactly
	// the stock hardware model at every size an experiment might ask.
	for _, procs := range []int{1, 4, 16} {
		ref := s.Ref.ConfigAt(procs)
		got := param.AppendCanonical(nil, &ref)
		stock := hw.Config(procs, true)
		want := param.AppendCanonical(nil, &stock)
		if !bytes.Equal(got, want) {
			t.Errorf("reference config at %dp differs from stock hardware model", procs)
		}
	}
}

func TestExperimentTraceReplayQuick(t *testing.T) {
	d, text, err := quick().ExperimentTraceReplay(2)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceReplay(t, d, 2, text)
}

func checkTraceReplay(t *testing.T, d harness.TraceReplayData, procs int, text string) {
	if want := fmt.Sprintf("(%dp;", procs); !strings.Contains(text, want) {
		t.Errorf("the table does not name %s:\n%s", want, text)
	}
	// Three ladder rungs per fixed workload, in capture-first order.
	apps := harness.ScaleQuick.FixedApps()
	if len(d.Rows) != 3*len(apps) {
		t.Fatalf("%d rows for %d workloads", len(d.Rows), len(apps))
	}
	for i, r := range d.Rows {
		switch i % 3 {
		case 0:
			// The capture rung is exact by construction: bit-identical
			// results, relative error exactly 1.
			if r.Rung != "mipsy" || r.Class != "exact" || !r.Identical || r.Relative != 1 {
				t.Errorf("capture rung row %+v", r)
			}
		default:
			// Detailed rungs diverge; that divergence is the omission-class
			// trace-driven error, and it stays within sanity bounds.
			if r.Class != "omission" || r.Identical {
				t.Errorf("detail rung row %+v", r)
			}
			if r.Relative <= 0.2 || r.Relative >= 5 {
				t.Errorf("%s/%s trace-driven error %.3f out of sanity range", r.Workload, r.Rung, r.Relative)
			}
		}
	}
	if !strings.Contains(text, "omission") || !strings.Contains(text, "exact") {
		t.Error("render missing taxonomy classes")
	}
}

// TestFiguresShareEmissions: on a fresh one-worker session with a store,
// Figure 1's 36 runs come from one emission per program, and Figures 1
// and 3 account their jobs, runs and hits as they did one emission per
// run: 232 jobs, 159 run from 94 emissions, 73 cached.
func TestFiguresShareEmissions(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	s := harness.NewSessionWithPool(harness.ScaleQuick, runner.New(1, store))
	if _, _, err := s.Figure1(); err != nil {
		t.Fatal(err)
	}
	if st := s.Pool().Stats(); st.Jobs != 36 || st.Ran != 36 || st.Emissions != 4 {
		t.Errorf("Figure 1: %s, want 36 jobs, 36 run from 4 emissions", st)
	}
	if _, _, err := s.Figure3(); err != nil {
		t.Fatal(err)
	}
	if st := s.Pool().Stats(); st.Jobs != 232 || st.Ran != 159 || st.CacheHits != 73 || st.Emissions != 94 {
		t.Errorf("Figures 1 and 3: %s, want 232 jobs, 159 run from 94 emissions, 73 cached", st)
	}
}

// countingStore is a memo store that counts the lookups of each key:
// every job a pool admits asks for its key once.
type countingStore struct {
	*runner.Store
	mu   sync.Mutex
	gets map[string]int
}

func (c *countingStore) Get(key string) (machine.Result, bool) {
	c.mu.Lock()
	c.gets[key]++
	c.mu.Unlock()
	return c.Store.Get(key)
}

// TestCalibrationMeasuresTheHardwareOnce: calibrating SimOS-Mipsy on a
// fresh one-worker session submits one TLB-timer job and one restart
// job on the reference, the seed-1 run the hardware values are read
// from, and those values are bit for bit the ones MeasureAt's first
// repeat gives.
func TestCalibrationMeasuresTheHardwareOnce(t *testing.T) {
	inner, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: inner, gets: make(map[string]int)}
	s := harness.NewSessionWithPool(harness.ScaleQuick, runner.New(1, store))
	cal, err := s.Calibrate(core.SimOSMipsy(1, 150, true))
	if err != nil {
		t.Fatal(err)
	}
	ref := s.Ref.ConfigAt(1)
	tlb, restart := snbench.TLBTimer(), snbench.Restart(snbench.RestartLines)
	for _, prog := range []emitter.Program{tlb, restart} {
		for seed := 1; seed <= s.Ref.Repeats; seed++ {
			want := 0
			if seed == 1 {
				want = 1
			}
			if got := store.gets[runner.Job{Config: ref, Prog: prog, Seed: uint64(seed)}.Fingerprint()]; got != want {
				t.Errorf("%s on the reference, seed %d: %d jobs, want %d", prog.Name, seed, got, want)
			}
		}
	}

	// A reference of its own runs MeasureAt's repeats from one emission.
	fresh := core.NewReference(16, true)
	fresh.Repeats = s.Ref.Repeats
	tlbMeas, err := fresh.MeasureAt(tlb, 1)
	if err != nil {
		t.Fatal(err)
	}
	restartMeas, err := fresh.MeasureAt(restart, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTLB := snbench.TLBHandlerCycles(tlbMeas.Runs[0], ref.ClockMHz)
	wantRestart := snbench.ThroughputNSPerLoad(restartMeas.Runs[0], snbench.RestartLines)
	gotTLB, err := core.NewCalibrator(s.Ref).TLBCycles(ref)
	if err != nil {
		t.Fatal(err)
	}
	if gotTLB != wantTLB {
		t.Errorf("TLBCycles on the reference = %v, MeasureAt's first repeat gives %v", gotTLB, wantTLB)
	}
	hw := make(map[string]float64)
	for _, a := range cal.Report {
		hw[a.Param] = a.HWMetric
	}
	if hw["os.tlb.handler_cycles"] != wantTLB || hw["l2.transfer_ns"] != wantRestart {
		t.Errorf("calibration read the hardware as %v cycles and %v ns/load, MeasureAt's first repeats give %v and %v",
			hw["os.tlb.handler_cycles"], hw["l2.transfer_ns"], wantTLB, wantRestart)
	}
}
