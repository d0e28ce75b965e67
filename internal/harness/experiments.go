package harness

import (
	"fmt"
	"strings"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/proto"
	"flashsim/internal/workload"
)

// Experiment is one row of the evaluation: a name the CLI and the tests
// address it by, a one-line title, and the function that runs it on a
// session and returns its structured result and text rendering.
type Experiment struct {
	Name  string
	Title string
	Run   func(*Session) (data any, text string, err error)
}

// Experiments is the evaluation, declared once: every table, figure and
// in-text experiment of the paper plus this reproduction's own studies.
// `flashsim validate` iterates it, so adding an experiment is adding a
// row here.
var Experiments = []Experiment{
	{"table1", "FLASH hardware configuration", textRow(func(*Session) (string, error) { return Table1(), nil })},
	{"table2", "SPLASH-2 problem sizes, paper vs. scaled", textRow(func(s *Session) (string, error) { return Table2(s.Scale), nil })},
	{"table3", "dependent-load latencies: hardware vs. tuned and untuned FlashLite", row((*Session).Table3)},
	{"figure1", "initial uniprocessor comparison, simulators untuned", row((*Session).Figure1)},
	{"figure2", "uniprocessor comparison after the application blocking fixes", row((*Session).Figure2)},
	{"figure3", "final uniprocessor comparison, simulators tuned", row((*Session).Figure3)},
	{"figure4", "final 4-processor comparison, simulators tuned", row((*Session).Figure4)},
	{"figure5", "FFT speedup trend study", row((*Session).Figure5)},
	{"figure6", "Radix-Sort speedup trend study", row((*Session).Figure6)},
	{"figure7", "unplaced Radix-Sort across memory-system models", row((*Session).Figure7)},
	{"tlb", "TLB-refill cost on hardware, Mipsy and MXS", row((*Session).ExperimentTLBCost)},
	{"blocking", "application TLB-blocking fixes measured on hardware", row((*Session).ExperimentBlockingFixes)},
	{"muldiv", "multiply/divide latency correction", row((*Session).ExperimentMulDiv)},
	{"defects", "historical simulator defects, injected and measured", textRow((*Session).ExperimentDefects)},
	{"decompose", "the simulator-hardware gap by registry path and error class", row((*Session).ExperimentDecompose)},
	{"trace", "trace-driven error across the CPU-detail ladder at 4p", row(func(s *Session) (TraceReplayData, string, error) { return s.ExperimentTraceReplay(4) })},
	{"tuning", "each study simulator's calibration: fitting log, registry diff, absorbed error, dependent loads", textRow(func(s *Session) (string, error) { return s.TuningDiffs(1) })},
	{"worksweep", "trend error for server-class workloads at 32-128 nodes", row(func(s *Session) (WorkloadSweepData, string, error) {
		return s.ExperimentWorkloadSweep(s.SweepNames, s.SweepSizes...)
	})},
}

// row adapts a typed experiment method to a table row.
func row[T any](f func(*Session) (T, string, error)) func(*Session) (any, string, error) {
	return func(s *Session) (any, string, error) { return f(s) }
}

// textRow adapts an experiment whose only result is its rendering.
func textRow(f func(*Session) (string, error)) func(*Session) (any, string, error) {
	return func(s *Session) (any, string, error) {
		text, err := f(s)
		return text, text, err
	}
}

// Find resolves experiment names against the table, in argument order.
// An unknown name's error lists the valid ones.
func Find(names ...string) ([]Experiment, error) {
	out := make([]Experiment, 0, len(names))
next:
	for _, name := range names {
		for _, x := range Experiments {
			if x.Name == name {
				out = append(out, x)
				continue next
			}
		}
		valid := make([]string, len(Experiments))
		for i, x := range Experiments {
			valid[i] = x.Name
		}
		return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(valid, ", "))
	}
	return out, nil
}

// Table1 renders the FLASH hardware configuration (Table 1), both the
// paper's full-scale values and the scaled geometry actually simulated.
func Table1() string {
	full := machine.Base(16, false)
	scaled := machine.Base(16, true)
	var b strings.Builder
	b.WriteString("Table 1: FLASH hardware configuration\n")
	row := func(k, v string) { fmt.Fprintf(&b, "  %-28s %s\n", k, v) }
	row("Processor", "MIPS R10000 (MXS full-fidelity model)")
	row("Number of Processors", "1-16")
	row("Processor Clock Speed", "150 MHz")
	row("System Clock Speed", "75 MHz")
	row("Instruction Cache", "32 KB, 64 B line size (modeled as ideal)")
	row("Primary Data Cache", fmt.Sprintf("%d KB, %d B line size (paper: %d KB)",
		scaled.L1D.Size>>10, scaled.L1D.LineSize, full.L1D.Size>>10))
	row("Secondary Cache", fmt.Sprintf("%d KB, %d B line size (paper: %d MB)",
		scaled.L2.Size>>10, scaled.L2.LineSize, full.L2.Size>>20))
	row("Max. IPC", "4")
	row("Max. Outstanding Misses", fmt.Sprintf("%d", scaled.MSHRCount))
	row("Network", "50 ns hops, hypercube")
	row("Memory", "140 ns to first double-word")
	row("Cache Coherence Protocol", "dynamic pointer allocation")
	return b.String()
}

// Table2 renders the problem sizes (Table 2: paper vs. this
// reproduction's scaled sizes, the registry's defaults at s).
func Table2(s Scale) string {
	def := func(name, param string) int {
		_, v := s.resolve(name, nil)
		return v.Int(param)
	}
	suffix := ""
	if s == ScaleQuick {
		suffix = " (quick)"
	}
	var b strings.Builder
	b.WriteString("Table 2: SPLASH-2 problem sizes (paper -> scaled)\n")
	row := func(app, paper, ours string, a ...any) {
		fmt.Fprintf(&b, "  %-12s %-28s %s\n", app, paper, fmt.Sprintf(ours, a...)+suffix)
	}
	row("FFT", "1M points", "%dK points", 1<<def("fft", "logn")>>10)
	row("Radix-Sort", "2M keys", "%dK keys", def("radix", "keys")>>10)
	n := def("lu", "n")
	row("LU", "768x768 matrix, 16x16 blocks", "%dx%d, 16x16 blocks", n, n)
	n = def("ocean", "n") + 2 // the interior plus its boundary rows
	row("Ocean", "514x514 grid", "%dx%d grid", n, n)
	return b.String()
}

// depLoads runs the dependent-load microbenchmark on the hardware
// reference and on each of cfgs (ns per load, per protocol case) and
// renders the comparison every calibration report shows (Table 3, each
// block of the tuning row): one line per case, the hardware latency at
// width w, then each simulator's latency and its ratio to the hardware.
func (s *Session) depLoads(w int, cfgs ...machine.Config) (hw map[proto.Case]float64, sims []map[proto.Case]float64, rows string, err error) {
	cal := core.NewCalibrator(s.Ref)
	if hw, err = cal.DependentLoadLatencies(); err != nil {
		return nil, nil, "", err
	}
	sims = make([]map[proto.Case]float64, len(cfgs))
	for i, cfg := range cfgs {
		if sims[i], err = cal.DepLatencies(cfg, core.DepCases...); err != nil {
			return nil, nil, "", err
		}
	}
	var b strings.Builder
	for _, pc := range core.DepCases {
		fmt.Fprintf(&b, "  %-22s %*.0f", pc, w, hw[pc])
		for _, sim := range sims {
			fmt.Fprintf(&b, " %*.0f (%.2f)", w, sim[pc], sim[pc]/hw[pc])
		}
		b.WriteByte('\n')
	}
	return hw, sims, b.String(), nil
}

// Table3Data holds dependent-load latencies per protocol case (ns).
type Table3Data struct {
	Cases   []proto.Case
	HW      map[proto.Case]float64
	Tuned   map[proto.Case]float64
	Untuned map[proto.Case]float64
}

// Table3 reproduces the dependent-load comparison: hardware vs. tuned
// and untuned FlashLite for the five protocol read cases. The simulator
// column uses SimOS-Mipsy at the hardware clock, as snbench did.
func (s *Session) Table3() (Table3Data, string, error) {
	var d Table3Data
	untuned, err := s.override(core.SimOSMipsy(4, 150, true))
	if err != nil {
		return d, "", err
	}
	calib, err := s.Calibrate(untuned)
	if err != nil {
		return d, "", err
	}
	hw, sims, rows, err := s.depLoads(10, calib.Apply(untuned), untuned)
	if err != nil {
		return d, "", err
	}
	d = Table3Data{Cases: core.DepCases, HW: hw, Tuned: sims[0], Untuned: sims[1]}
	text := "Table 3: dependent load latencies (ns; parenthesized = relative to hardware)\n" +
		fmt.Sprintf("  %-22s %10s %18s %18s\n", "Protocol Case", "HW", "Tuned FL", "Untuned FL") +
		rows
	return d, text, nil
}

// compare is the body of Figures 1-4: the seven study simulators,
// untuned or calibrated, against the hardware on apps at procs.
func (s *Session) compare(title string, tuned bool, apps []core.Workload, procs int) (core.CompareResult, string, error) {
	var cfgs []machine.Config
	var err error
	if tuned {
		cfgs, err = s.TunedConfigs(procs)
	} else {
		cfgs, err = s.UntunedConfigs(procs)
	}
	if err != nil {
		return core.CompareResult{}, "", err
	}
	res, err := core.NewStudy(s.Ref, cfgs...).Compare(apps, procs)
	if err != nil {
		return res, "", err
	}
	return res, renderRelTable(title, res), nil
}

// Figure1 reproduces the initial uniprocessor comparison: untuned
// simulators, applications blocked as originally recommended.
func (s *Session) Figure1() (core.CompareResult, string, error) {
	return s.compare("Figure 1: initial uniprocessor SPLASH-2 results before simulator tuning", false, s.Scale.InitialApps(), 1)
}

// Figure2 reproduces the uniprocessor comparison after the application
// TLB-blocking fixes (FFT blocked for the TLB, radix 256 -> 32),
// simulators still untuned.
func (s *Session) Figure2() (core.CompareResult, string, error) {
	return s.compare("Figure 2: uniprocessor SPLASH-2 results after blocking fixes", false, s.Scale.FixedApps(), 1)
}

// Figure3 reproduces the final uniprocessor comparison with tuned
// simulators.
func (s *Session) Figure3() (core.CompareResult, string, error) {
	return s.compare("Figure 3: final uniprocessor SPLASH-2 comparison", true, s.Scale.FixedApps(), 1)
}

// Figure4 reproduces the final four-processor comparison with tuned
// simulators.
func (s *Session) Figure4() (core.CompareResult, string, error) {
	return s.compare("Figure 4: final 4-processor SPLASH-2 comparison", true, s.Scale.FixedApps(), 4)
}

// trendSim is one simulator curve of a trend study.
type trendSim struct {
	base  machine.Config // before the session override
	tuned bool           // calibrate against the reference first
	label string         // curve label; "" keeps the configuration's name
}

// trend is the body of Figures 5-7: the hardware speedup curve for w
// over procs, then one predicted curve per simulator.
func (s *Session) trend(title string, w core.Workload, procs []int, sims ...trendSim) ([]core.Curve, string, error) {
	cfgs := make([]machine.Config, len(sims))
	for i, ts := range sims {
		cfg, err := s.override(ts.base)
		if err != nil {
			return nil, "", err
		}
		if ts.tuned {
			cal, err := s.Calibrate(cfg)
			if err != nil {
				return nil, "", err
			}
			cfg = cal.Apply(cfg)
		}
		if ts.label != "" {
			cfg.Name = ts.label
		}
		cfgs[i] = cfg
	}
	curves, err := s.Ref.Speedups(w, procs, cfgs...)
	if err != nil {
		return nil, "", err
	}
	return curves, renderCurves(title, curves), nil
}

// speedupProcs is the Figures 5-6 processor sweep.
var speedupProcs = []int{1, 2, 4, 8, 16}

// Figure5 reproduces the FFT speedup trend study: hardware vs.
// SimOS-MXS vs. SimOS-Mipsy at 300 MHz (the over-driven in-order model
// whose extra request rate invents contention and wrecks the trend).
func (s *Session) Figure5() ([]core.Curve, string, error) {
	return s.trend("Figure 5: speedup trend study for FFT", s.Scale.FFTWorkload(true), speedupProcs,
		trendSim{base: core.SimOSMXS(1, true), tuned: true},
		trendSim{base: core.SimOSMipsy(1, 300, true), tuned: true})
}

// Figure6 reproduces the Radix speedup study: hardware (poor speedup)
// vs. SimOS-Mipsy 225 (predicts it) vs. Solo-Mipsy 225 (wrongly
// predicts good speedup: IRIX page-coloring conflicts are absent under
// Solo's allocator).
func (s *Session) Figure6() ([]core.Curve, string, error) {
	return s.trend("Figure 6: speedup trend study for Radix", s.Scale.RadixWorkload(32, false), speedupProcs,
		trendSim{base: core.SimOSMipsy(1, 225, true), tuned: true},
		trendSim{base: core.SoloMipsy(1, 225, true), tuned: true})
}

// Figure7 reproduces the memory-system sensitivity study: unplaced
// Radix-Sort (every page homed on node 0) on 8 and 16 processors, as
// predicted by SimOS-Mipsy 225 over tuned FlashLite, untuned FlashLite,
// and the NUMA model. NUMA correctly predicts terrible speedup but
// misses the MAGIC-occupancy hotspot magnitude.
func (s *Session) Figure7() ([]core.Curve, string, error) {
	mipsy := core.SimOSMipsy(1, 225, true)
	return s.trend("Figure 7: speedup for unplaced Radix-Sort (SimOS-Mipsy 225MHz)", s.Scale.RadixWorkload(32, true), []int{1, 8, 16},
		trendSim{base: mipsy, tuned: true, label: "Tuned FlashLite"},
		trendSim{base: mipsy, label: "Untuned FlashLite"},
		trendSim{base: core.WithNUMA(mipsy), label: "NUMA"})
}

// TLBCostData is the §3.1.2 in-text TLB experiment: measured refill
// costs on hardware and both untuned processor models.
type TLBCostData struct {
	HWCycles    float64
	MipsyCycles float64
	MXSCycles   float64
}

// ExperimentTLBCost measures the TLB-refill costs (hardware 65 vs Mipsy
// 25 vs MXS 35).
func (s *Session) ExperimentTLBCost() (TLBCostData, string, error) {
	var d TLBCostData
	mipsy, err := s.override(core.SimOSMipsy(1, 150, true))
	if err != nil {
		return d, "", err
	}
	mxs, err := s.override(core.SimOSMXS(1, true))
	if err != nil {
		return d, "", err
	}
	cal := core.NewCalibrator(s.Ref)
	if d.HWCycles, err = cal.TLBCycles(s.Ref.ConfigAt(1)); err != nil {
		return d, "", err
	}
	if d.MipsyCycles, err = cal.TLBCycles(mipsy); err != nil {
		return d, "", err
	}
	if d.MXSCycles, err = cal.TLBCycles(mxs); err != nil {
		return d, "", err
	}
	text := fmt.Sprintf("TLB refill cost (measured by snbench TLB timer):\n"+
		"  FLASH hardware: %5.1f cycles (paper: 65)\n"+
		"  SimOS-Mipsy:    %5.1f cycles (paper: 25)\n"+
		"  SimOS-MXS:      %5.1f cycles (paper: 35)\n",
		d.HWCycles, d.MipsyCycles, d.MXSCycles)
	return d, text, nil
}

// BlockingFixData is the §3.1.2 application-fix experiment on hardware.
type BlockingFixData struct {
	FFTGain1, FFTGain4     float64 // fractional improvement from TLB blocking
	RadixGain1, RadixGain4 float64 // fractional improvement from radix 256->32
}

// ExperimentBlockingFixes measures the application-level TLB fixes on
// the hardware: FFT TLB blocking (paper: +14% on 1p, +16% on 4p) and
// radix 256 -> 32 (paper: +31% / +34%).
func (s *Session) ExperimentBlockingFixes() (BlockingFixData, string, error) {
	var d BlockingFixData
	fft := [2]core.Workload{s.Scale.FFTWorkload(false), s.Scale.FFTWorkload(true)}
	radix := [2]core.Workload{s.Scale.RadixWorkload(256, false), s.Scale.RadixWorkload(32, false)}
	b := s.Ref.Batch()
	for _, fix := range [][2]core.Workload{fft, radix} {
		for _, procs := range []int{1, 4} {
			b.HW(fix[0].Make(procs), procs).HW(fix[1].Make(procs), procs)
		}
	}
	ms, err := b.Run()
	if err != nil {
		return d, "", err
	}
	gain := func(i int) float64 { return 1 - float64(ms[2*i+1].Mean)/float64(ms[2*i].Mean) }
	d.FFTGain1, d.FFTGain4, d.RadixGain1, d.RadixGain4 = gain(0), gain(1), gain(2), gain(3)
	text := fmt.Sprintf("Application TLB fixes measured on hardware:\n"+
		"  FFT TLB blocking:   %+5.1f%% on 1p (paper 14%%), %+5.1f%% on 4p (paper 16%%)\n"+
		"  Radix 256 -> 32:    %+5.1f%% on 1p (paper 31%%), %+5.1f%% on 4p (paper 34%%)\n",
		100*d.FFTGain1, 100*d.FFTGain4, 100*d.RadixGain1, 100*d.RadixGain4)
	return d, text, nil
}

// MulDivData is the §3.1.3 instruction-latency experiment.
type MulDivData struct {
	RelWithout float64 // SimOS-Mipsy-225 relative time, unit latencies
	RelWith    float64 // same with multiply/divide latencies modeled
}

// ExperimentMulDiv reproduces the multiply/divide correction: adding 5
// cycles per multiply and 19 per divide moved SimOS-Mipsy-225's
// Radix-Sort prediction from 0.71 to ~1.02.
func (s *Session) ExperimentMulDiv() (MulDivData, string, error) {
	var d MulDivData
	w := s.Scale.RadixWorkload(32, false)
	hwMeas, err := s.Ref.MeasureAt(w.Make(1), 1)
	if err != nil {
		return d, "", err
	}
	base, err := s.override(core.SimOSMipsy(1, 225, true))
	if err != nil {
		return d, "", err
	}
	cal, err := s.Calibrate(base)
	if err != nil {
		return d, "", err
	}
	exec, err := s.Ref.Walk(cal.Apply(base), []param.Delta{{Path: "cpu.model_instr_latency", Before: false, After: true}}, w)
	if err != nil {
		return d, "", err
	}
	d.RelWithout = float64(exec[0]) / float64(hwMeas.Mean)
	d.RelWith = float64(exec[1]) / float64(hwMeas.Mean)
	text := fmt.Sprintf("Instruction-latency correction (Radix on SimOS-Mipsy 225MHz, tuned):\n"+
		"  unit latencies:          rel. time %.2f (paper 0.71)\n"+
		"  + 5-cycle mul, 19-cycle div: rel. time %.2f (paper 1.02)\n",
		d.RelWithout, d.RelWith)
	return d, text, nil
}

// ExperimentDefects quantifies the historical simulator errors: each
// defect's delta is applied to its defect-free base and both ends run on
// the workload that exposes it. Relative < 1 means the defect makes the
// simulator optimistic.
func (s *Session) ExperimentDefects() (string, error) {
	var b strings.Builder
	b.WriteString("Defect injection (execution time relative to defect-free simulator):\n")
	for _, d := range core.KnownDefects() {
		if _, err := workload.Lookup(d.Workload); err != nil {
			return "", fmt.Errorf("defect %s: %w", d.Name, err)
		}
		w := s.Scale.Workload(d.Workload, nil)
		base, err := s.override(d.Base)
		if err != nil {
			return "", err
		}
		exec, err := s.Ref.Walk(base, []param.Delta{d.Delta}, w)
		if err != nil {
			return "", fmt.Errorf("defect %s: %w", d.Name, err)
		}
		fmt.Fprintf(&b, "  %-26s [%-14s] on %-14s rel %.3f — %s\n",
			d.Name, d.Delta.Class(), w.Name, float64(exec[1])/float64(exec[0]), d.Description)
	}
	return b.String(), nil
}
