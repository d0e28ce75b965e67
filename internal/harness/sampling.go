package harness

import (
	"fmt"
	"strings"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/param"
)

// SamplingRow is one (workload, machine size) cell of the sampled-
// simulation error experiment: how far a sampled run of the schedule
// lands from the full-detail run it approximates.
type SamplingRow struct {
	Workload string
	Procs    int
	// Class is the taxonomy class of the sampling error: the functional
	// fast-forward deliberately omits the core timing model between
	// windows, so it is an omission-class error like Solo's missing OS.
	Class string
	// Relative is sampled ExecTicks / full-detail ExecTicks.
	Relative float64
	// DetailedFrac is the fraction of committed instructions that ran
	// on the detailed core (windows, including warmup).
	DetailedFrac float64
	// Windows is the total detailed-window count across nodes.
	Windows uint64
}

// SamplingData is the sampling experiment's structured result.
type SamplingData struct {
	// Schedule is the sampling configuration every sampled run used.
	Schedule machine.SamplingConfig
	Rows     []SamplingRow
}

// MaxRelErr returns the largest |Relative - 1| across rows.
func (d SamplingData) MaxRelErr() float64 {
	var max float64
	for _, r := range d.Rows {
		err := r.Relative - 1
		if err < 0 {
			err = -err
		}
		if err > max {
			max = err
		}
	}
	return max
}

// ExperimentSampling runs every fixed SPLASH-2 workload at each
// machine size both full-detail and under the sampling schedule
// (classic SimOS-Mipsy at both fidelities), then reports the sampling
// error per app × machine size as taxonomy rows — the same
// differential machinery as the trace experiment, with the fast-
// forward's omitted core model as the error source.
func (s *Session) ExperimentSampling(sizes ...int) (SamplingData, string, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 4}
	}
	d, err := s.samplingRows(s.Scale.FixedApps(), sizes)
	if err != nil {
		return d, "", err
	}
	sc := d.Schedule
	head := fmt.Sprintf("Sampled-simulation error (schedule %d/%d/%d", sc.Period, sc.Window, sc.Warmup)
	if sc.Phase > 0 {
		head += fmt.Sprintf(" phase %d", sc.Phase)
	}
	if sc.ColdState {
		head += ", cold"
	} else {
		head += ", warm"
	}
	return d, head + "; sampled ExecTicks relative to full-detail):\n" + d.render(), nil
}

// samplingRows measures one SamplingRow per machine size × workload:
// classic SimOS-Mipsy full-detail against the same machine under the
// sampling schedule.
//
// The schedule comes from the session override when it enables one
// (-sample / -set sampling.*) and defaults to machine.DefaultSampling
// otherwise; the full-detail baseline always runs unsampled, so an
// override cannot silently sample both sides of the comparison.
func (s *Session) samplingRows(apps []core.Workload, sizes []int) (SamplingData, error) {
	var d SamplingData
	for _, procs := range sizes {
		base, err := s.override(core.SimOSMipsy(procs, 150, true))
		if err != nil {
			return d, err
		}
		sampled := base
		if !sampled.Sampling.Enabled {
			sampled.Sampling = machine.DefaultSampling()
		}
		sampled.Name += " sampled"
		base.Sampling = machine.SamplingConfig{}
		d.Schedule = sampled.Sampling

		for _, w := range apps {
			prog := w.Make(procs)
			full, err := s.runOne(base, prog)
			if err != nil {
				return d, fmt.Errorf("%s full-detail at %dp: %w", w.Name, procs, err)
			}
			samp, err := s.runOne(sampled, prog)
			if err != nil {
				return d, fmt.Errorf("%s sampled at %dp: %w", w.Name, procs, err)
			}
			if !samp.Sampled {
				return d, fmt.Errorf("%s at %dp: sampled config produced an unsampled result", w.Name, procs)
			}
			row := SamplingRow{
				Workload: w.Name,
				Procs:    procs,
				Class:    string(param.Omission),
				Relative: float64(samp.Exec) / float64(full.Exec),
				Windows:  samp.Sampling.Windows,
			}
			if samp.Instructions > 0 {
				row.DetailedFrac = float64(samp.Sampling.DetailedInstrs) / float64(samp.Instructions)
			}
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// render tabulates the rows under their column header, closing with the
// largest error.
func (d SamplingData) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s %5s %-10s %8s %9s %8s\n", "workload", "procs", "class", "rel", "detailed", "windows")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "  %-16s %5d %-10s %8.3f %8.1f%% %8d\n",
			r.Workload, r.Procs, r.Class, r.Relative, 100*r.DetailedFrac, r.Windows)
	}
	fmt.Fprintf(&b, "  max relative error: %.1f%%\n", 100*d.MaxRelErr())
	return b.String()
}
