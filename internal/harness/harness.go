// Package harness turns the library into the paper's evaluation
// section. Experiments is the one table that declares it: a row (name,
// title, function) for every table and figure (Tables 1–3, Figures
// 1–7), the in-text experiments (TLB-miss cost, application blocking
// fixes, the multiply/divide latency correction, defect injection) and
// this reproduction's own studies (the computed taxonomy, trace replay,
// the tuning loop and what it absorbed, the server-class workload
// sweep). `flashsim validate` iterates the table; each row
// runs on a Session and returns structured data plus a text rendering
// that mirrors the paper's presentation. Rows that differ only in their
// inputs share a body: Figures 1–4 are compare, Figures 5–7 are trend,
// and `muldiv`, `defects` and `decompose` are core.Reference.Walk (one
// step, one step per defect, all of param.Diff).
package harness

import (
	"fmt"
	"slices"
	"strings"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/workload"
)

// Scale selects experiment problem sizes.
type Scale int

const (
	// ScaleFull uses the 1/16-of-paper sizes documented in
	// EXPERIMENTS.md (minutes of wall time for the full suite).
	ScaleFull Scale = iota
	// ScaleQuick uses reduced sizes for tests and benchmarks
	// (seconds); trends hold but TLB effects shrink with footprint.
	ScaleQuick
)

// Workload resolves a registered workload at this scale (quick scale
// selects the registry's quick default sizes) with the given parameter
// overrides.
func (s Scale) Workload(name string, over map[string]any) core.Workload {
	def, vals := s.resolve(name, over)
	return def.Workload(vals)
}

// resolve looks a workload up and resolves over at this scale. Names
// and overrides are internal constants here, so a registry miss is a
// programming error and panics.
func (s Scale) resolve(name string, over map[string]any) (*workload.Definition, workload.Values) {
	def, vals, err := workload.Spec{Name: name, Params: over}.Resolve(s == ScaleQuick)
	if err != nil {
		panic(err)
	}
	return def, vals
}

// FFTWorkload returns the FFT workload; tlbBlocked selects the paper's
// blocking fix.
func (s Scale) FFTWorkload(tlbBlocked bool) core.Workload {
	return s.Workload("fft", map[string]any{"tlb_blocked": tlbBlocked})
}

// RadixWorkload returns Radix-Sort with the given radix; unplaced
// disables data placement (Figure 7).
func (s Scale) RadixWorkload(radix int, unplaced bool) core.Workload {
	return s.Workload("radix", map[string]any{"radix": radix, "unplaced": unplaced})
}

// InitialApps returns the four SPLASH-2 workloads as originally tuned
// (FFT blocked for the cache, Radix-Sort with radix 256) — the Figure 1
// inputs.
func (s Scale) InitialApps() []core.Workload {
	return []core.Workload{
		s.FFTWorkload(false),
		s.RadixWorkload(256, false),
		s.Workload("lu", nil),
		s.Workload("ocean", nil),
	}
}

// FixedApps returns the workloads after the paper's TLB blocking fixes
// (FFT blocked for the TLB, radix reduced to 32) — Figures 2–4.
func (s Scale) FixedApps() []core.Workload {
	return []core.Workload{
		s.FFTWorkload(true),
		s.RadixWorkload(32, false),
		s.Workload("lu", nil),
		s.Workload("ocean", nil),
	}
}

// Session carries the shared state of one evaluation run: the hardware
// reference, the scale, the run-execution pool, and cached calibrations
// (calibrating a simulator is itself a set of machine runs, reused
// across figures).
type Session struct {
	Ref   *core.Reference
	Scale Scale

	// Override, when set, rewrites every *simulator* configuration an
	// experiment builds before it runs — the hook the CLI uses to route
	// -config/-set parameter overrides into the studies. It is applied
	// to untuned and pre-calibration configurations alike, and never to
	// the hardware reference: overriding a simulator knob changes a
	// prediction, the machine being predicted stays fixed. This is what
	// lets `-set os.tlb.handler_cycles=65` reproduce the paper's X1
	// correction with no code changes.
	Override func(machine.Config) (machine.Config, error)

	// SweepNames and SweepSizes narrow the worksweep experiment's
	// matrix: registry workload names and machine sizes (empty =
	// SweepWorkloads at core.WideSizes).
	SweepNames []string
	SweepSizes []int

	cals map[string]core.Calibration
}

// NewSession builds a session with a 16-processor hardware reference at
// the scaled cache geometry, executing runs serially.
func NewSession(scale Scale) *Session { return NewSessionWithPool(scale, runner.Serial()) }

// NewSessionWithPool is NewSession with every experiment's runs routed
// through pool. The pool lives in the reference, so the Study,
// Calibrator, Speedups and Walk the rows build against it use it
// too; a pool with a store memoizes runs across figures (figure 3 reuses
// the reference runs figure 2 paid for).
func NewSessionWithPool(scale Scale, pool *runner.Pool) *Session {
	ref := core.NewReference(16, true)
	ref.Pool = pool
	if scale == ScaleQuick {
		ref.Repeats = 2
	}
	return &Session{Ref: ref, Scale: scale, cals: make(map[string]core.Calibration)}
}

// Pool returns the pool every run of the session goes through.
func (s *Session) Pool() *runner.Pool { return s.Ref.Pool }

// Calibrate returns the (cached) calibration for cfg.
func (s *Session) Calibrate(cfg machine.Config) (core.Calibration, error) {
	if cal, ok := s.cals[cfg.Name]; ok {
		return cal, nil
	}
	cal, err := core.NewCalibrator(s.Ref).Calibrate(cfg)
	if err != nil {
		return cal, err
	}
	s.cals[cfg.Name] = cal
	return cal, nil
}

// override applies the session's parameter override to a simulator
// configuration (identity when unset).
func (s *Session) override(cfg machine.Config) (machine.Config, error) {
	if s.Override == nil {
		return cfg, nil
	}
	out, err := s.Override(cfg)
	if err != nil {
		return cfg, fmt.Errorf("overriding %s: %w", cfg.Name, err)
	}
	return out, nil
}

// UntunedConfigs returns the seven study simulators at the given size,
// with any session override applied.
func (s *Session) UntunedConfigs(procs int) ([]machine.Config, error) {
	var out []machine.Config
	for _, cfg := range core.StandardConfigs(procs, true) {
		cfg, err := s.override(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// TunedConfigs returns the seven study simulators after closing the
// loop: each calibrated against the hardware reference. Overrides are
// applied before calibration — the tuning loop then corrects whatever
// configuration the user actually asked for.
func (s *Session) TunedConfigs(procs int) ([]machine.Config, error) {
	cfgs, err := s.UntunedConfigs(procs)
	if err != nil {
		return nil, err
	}
	var out []machine.Config
	for _, cfg := range cfgs {
		cal, err := s.Calibrate(cfg)
		if err != nil {
			return nil, fmt.Errorf("calibrating %s: %w", cfg.Name, err)
		}
		out = append(out, cal.Apply(cfg))
	}
	return out, nil
}

// TuningDiffs renders closing the loop for each study simulator: the
// fitting log, the registry diff, what the fit absorbed — each knob the
// loop owns against the hardware's value, where a fitted knob far off
// carries error from elsewhere — and the dependent loads untuned vs.
// tuned.
func (s *Session) TuningDiffs(procs int) (string, error) {
	cfgs, err := s.UntunedConfigs(procs)
	if err != nil {
		return "", err
	}
	truth := s.Ref.ConfigAt(procs)
	var b strings.Builder
	b.WriteString("Simulator tuning (parameter corrections from closing the loop):\n")
	for _, cfg := range cfgs {
		cal, err := s.Calibrate(cfg)
		if err != nil {
			return "", fmt.Errorf("calibrating %s: %w", cfg.Name, err)
		}
		tuned := cal.Apply(cfg)
		_, _, rows, err := s.depLoads(8, cfg, tuned)
		if err != nil {
			return "", err
		}
		fitted := make(map[string]bool)
		fmt.Fprintf(&b, "\n%s: fitting log\n", cfg.Name)
		for _, a := range cal.Report {
			fmt.Fprintf(&b, "  %v\n", a)
			fitted[a.Param] = true
		}
		fmt.Fprintf(&b, "%s: registry diff (untuned -> tuned)\n%s", cfg.Name, cal.RenderDiff())
		for _, d := range cal.Deltas {
			fitted[d.Path] = true
		}
		fmt.Fprintf(&b, "%s: absorbed (tuned vs. hardware)\n  %-30s %10s %10s %10s\n", cfg.Name, "path", "tuned", "hw", "difference")
		for _, p := range param.All() {
			if strings.HasPrefix(p.Path, "flash.") ||
				slices.Contains([]string{"os.tlb.handler_cycles", "l2.model_interface_occupancy", "l2.transfer_ns"}, p.Path) {
				b.WriteString(absorbedLine(p.Path, p.Get(&tuned), p.Get(&truth), fitted[p.Path]))
			}
		}
		fmt.Fprintf(&b, "%s: dependent loads (ns; relative to hardware)\n  %-22s %8s %16s %16s\n", cfg.Name, "case", "hw", "untuned", "tuned")
		b.WriteString(rows)
	}
	return b.String(), nil
}

// absorbedLine renders one knob of the absorbed table: the tuned and
// hardware values (floats as the registry diff prints them), tuned
// minus hardware (a flag counts 0 or 1, as in the fitting log), and
// "not fitted" when no fitting step logged or moved it.
func absorbedLine(path string, tuned, hw any, fitted bool) string {
	var cell [2]string
	var num [2]float64
	for i, v := range []any{tuned, hw} {
		cell[i] = fmt.Sprint(v)
		switch x := v.(type) {
		case float64:
			cell[i], num[i] = fmt.Sprintf("%.6g", x), x
		case uint64:
			num[i] = float64(x)
		case bool:
			if x {
				num[i] = 1
			}
		}
	}
	line := fmt.Sprintf("  %-30s %10s %10s %+10.4g", path, cell[0], cell[1], num[0]-num[1])
	if !fitted {
		line += "  not fitted"
	}
	return line + "\n"
}

// renderRelTable renders a Figures 1–4 style table: workloads down,
// configurations across, relative execution times in the cells.
func renderRelTable(title string, res core.CompareResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (relative execution time, 1.0 = FLASH hardware; %dp)\n", title, res.Procs)
	fmt.Fprintf(&b, "%-18s", "workload")
	for _, c := range res.Configs {
		b.WriteString(pad(shortName(c), 14))
	}
	b.WriteByte('\n')
	for _, w := range res.Order {
		fmt.Fprintf(&b, "%-18s", w)
		for _, e := range res.Rows[w] {
			b.WriteString(pad(fmt.Sprintf("%.2f", e.Relative), 14))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s + " "
	}
	return strings.Repeat(" ", w-len(s)) + s
}

// shortName compresses config names for table columns.
func shortName(s string) string {
	s = strings.ReplaceAll(s, "SimOS-Mipsy ", "SO-M")
	s = strings.ReplaceAll(s, "SimOS-MXS ", "SO-X")
	s = strings.ReplaceAll(s, "Solo-Mipsy ", "Solo")
	s = strings.ReplaceAll(s, " (tuned)", "*")
	s = strings.ReplaceAll(s, "MHz", "")
	return s
}

// renderCurves renders Figures 5–7 style speedup curves as text.
func renderCurves(title string, curves []core.Curve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (speedup)\n", title)
	if len(curves) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-28s", "procs")
	for _, p := range curves[0].Procs {
		fmt.Fprintf(&b, "%8d", p)
	}
	b.WriteByte('\n')
	for _, c := range curves {
		fmt.Fprintf(&b, "%-28s", c.Label)
		for _, s := range c.Speedup {
			fmt.Fprintf(&b, "%8.2f", s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
