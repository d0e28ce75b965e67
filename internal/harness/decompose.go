package harness

import (
	"fmt"
	"slices"
	"strings"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/sim"
)

// Decomposition is one bar of Figure 1 taken apart: everything that
// separates the simulator from the jitter-free hardware model, and the
// workload's execution time as each of those paths crosses over.
type Decomposition struct {
	Config, Workload string
	// Steps is param.Diff(simulator, hardware), in registry order.
	Steps []param.Delta
	// Forward and Reverse are core.Reference.Walk over Steps and over
	// Steps reversed: both start at the simulator's execution time and
	// end at the hardware's.
	Forward, Reverse []sim.Ticks
}

// Share is the part of the gap Steps[i] carries — the change in
// execution time when it alone crosses, over Exec(hw) - Exec(sim) — in
// each walk. The two differ because a path's effect depends on what was
// crossed before it (an interlock charge costs nothing until the flag
// that enables it is on), so one order is not an answer.
func (d Decomposition) Share(i int) (fwd, rev float64) {
	n := len(d.Steps)
	gap := float64(d.Forward[n]) - float64(d.Forward[0])
	part := func(exec []sim.Ticks, j int) float64 {
		return (float64(exec[j+1])-float64(exec[j]))/gap + 0 // + 0: no change is 0, not -0, under a negative gap
	}
	return part(d.Forward, i), part(d.Reverse, n-1-i)
}

// ExperimentDecompose computes §3.1's taxonomy instead of writing it
// down: a walk across param.Diff prices each path on each workload, and
// the registry's Class column sorts the paths into bugs, omissions and
// lack of detail. The bars are SimOS-Mipsy 225, Solo-Mipsy 225 and
// SimOS-MXS on Figure 1's workloads at one processor.
func (s *Session) ExperimentDecompose() ([]Decomposition, string, error) {
	hw := s.Ref.ConfigAt(1)
	hw.JitterPct = 0
	apps := s.Scale.InitialApps()
	var bars []Decomposition
	var b strings.Builder
	b.WriteString("Decomposition of the simulator-hardware gap (1p; % of Exec(hw) - Exec(sim) carried by each\n" +
		"registry path: mean of the forward and the reverse walk over param.Diff, and the two):\n")
	for _, cfg := range []machine.Config{core.SimOSMipsy(1, 225, true), core.SoloMipsy(1, 225, true), core.SimOSMXS(1, true)} {
		cfg, err := s.override(cfg)
		if err != nil {
			return nil, "", err
		}
		d := Decomposition{Config: cfg.Name, Steps: param.Diff(cfg, hw)}
		back := slices.Clone(d.Steps)
		slices.Reverse(back)
		for _, w := range apps {
			d.Workload = w.Name
			if d.Forward, err = s.Ref.Walk(cfg, d.Steps, w); err == nil {
				d.Reverse, err = s.Ref.Walk(cfg, back, w)
			}
			if err != nil {
				return nil, "", fmt.Errorf("%s: %w", cfg.Name, err)
			}
			bars = append(bars, d)
		}
		renderDecomposition(&b, bars[len(bars)-len(apps):])
	}
	return bars, b.String(), nil
}

// renderDecomposition writes one simulator's table: paths down, the
// bars' workloads across, then the shares summed by class.
func renderDecomposition(b *strings.Builder, bars []Decomposition) {
	line := func(label string, class param.ErrorClass, cell func(Decomposition) string) {
		fmt.Fprintf(b, "  %-29s %-14s", label, class)
		for _, d := range bars {
			fmt.Fprintf(b, " %24s", cell(d))
		}
		b.WriteByte('\n')
	}
	cell := func(fwd, rev float64) string {
		return fmt.Sprintf("%+.1f (%+.1f..%+.1f)", 50*(fwd+rev), 100*min(fwd, rev), 100*max(fwd, rev))
	}
	steps := bars[0].Steps
	fmt.Fprintf(b, "%s -> FLASH, %d paths\n", bars[0].Config, len(steps))
	line("path", "class", func(d Decomposition) string { return d.Workload })
	line("(sim/hw)", "", func(d Decomposition) string {
		return fmt.Sprintf("%.2f", float64(d.Forward[0])/float64(d.Forward[len(steps)]))
	})
	for i, st := range steps {
		line(st.Path, st.Class(), func(d Decomposition) string { return cell(d.Share(i)) })
	}
	for _, c := range []param.ErrorClass{param.Bug, param.Omission, param.LackOfDetail, ""} {
		line("(sum)", c, func(d Decomposition) string {
			var fwd, rev float64
			for i, st := range steps {
				if st.Class() == c {
					f, r := d.Share(i)
					fwd, rev = fwd+f, rev+r
				}
			}
			return cell(fwd, rev)
		})
	}
}
