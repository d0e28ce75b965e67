package harness

import (
	"fmt"
	"strings"

	"flashsim/internal/core"
)

// WorkloadTrendRow is one workload of the widened trend study: the
// hardware speedup curve over the processor sweep, and how far the
// untuned and tuned SimOS-Mipsy curves land from it.
type WorkloadTrendRow struct {
	Workload string
	Procs    []int
	Hardware []float64
	Untuned  core.TrendError
	Tuned    core.TrendError
}

// WorkloadSweepData is the structured result of the workload sweep: the
// tuned-vs-untuned trend study plus the sampling-error taxonomy rows,
// both across the widened machine matrix.
type WorkloadSweepData struct {
	Sizes    []int
	Trend    []WorkloadTrendRow
	Sampling SamplingData
}

// SweepWorkloads is the default worksweep matrix: the four server-class
// registry workloads.
var SweepWorkloads = []string{"barnes", "gups", "oltp", "webserve"}

// ExperimentWorkloadSweep reruns the paper's two scaling analyses over
// registry workloads (default SweepWorkloads) at server-class machine
// sizes (default core.WideSizes, 32-128 nodes): the trend study — does
// the simulator predict the hardware's speedup curve, before and after
// closing the calibration loop — and the sampled-simulation error
// taxonomy. Each workload resolves through the registry at the
// session's scale with its registered defaults.
func (s *Session) ExperimentWorkloadSweep(names []string, sizes ...int) (WorkloadSweepData, string, error) {
	if len(names) == 0 {
		names = SweepWorkloads
	}
	if len(sizes) == 0 {
		sizes = core.WideSizes
	}
	d := WorkloadSweepData{Sizes: sizes}
	sweep := append([]int{1}, sizes...)
	ta := core.NewTrendAnalyzer(s.Ref)

	untuned, err := s.override(core.SimOSMipsy(1, 150, true))
	if err != nil {
		return d, "", err
	}
	cal, err := s.Calibrate(untuned)
	if err != nil {
		return d, "", fmt.Errorf("calibrating %s: %w", untuned.Name, err)
	}
	tuned := cal.Apply(untuned)
	tuned.Name += " tuned"

	apps := make([]core.Workload, len(names))
	for i, name := range names {
		w := s.Scale.Workload(name, nil)
		apps[i] = w
		hw, err := ta.HardwareSpeedup(w, sweep)
		if err != nil {
			return d, "", err
		}
		uc, err := ta.SimSpeedup(untuned, w, sweep)
		if err != nil {
			return d, "", err
		}
		tc, err := ta.SimSpeedup(tuned, w, sweep)
		if err != nil {
			return d, "", err
		}
		d.Trend = append(d.Trend, WorkloadTrendRow{
			Workload: w.Name,
			Procs:    sweep,
			Hardware: hw.Speedup,
			Untuned:  core.CompareTrend(hw, uc),
			Tuned:    core.CompareTrend(hw, tc),
		})
	}

	// The sampling-error taxonomy across the same matrix.
	if d.Sampling, err = s.samplingRows(apps, sizes); err != nil {
		return d, "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Workload sweep at %v nodes (trend error in predicted speedup vs. hardware):\n", sizes)
	fmt.Fprintf(&b, "  %-16s %-28s %8s %8s %8s %8s\n", "workload", "speedup@"+fmt.Sprint(sizes[len(sizes)-1]), "untuned", "(final)", "tuned", "(final)")
	for _, r := range d.Trend {
		fmt.Fprintf(&b, "  %-16s %-28.2f %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			r.Workload, r.Hardware[len(r.Hardware)-1],
			100*r.Untuned.MaxErr, 100*r.Untuned.FinalErr,
			100*r.Tuned.MaxErr, 100*r.Tuned.FinalErr)
	}
	sc := d.Sampling.Schedule
	fmt.Fprintf(&b, "Sampling error (schedule %d/%d/%d; sampled ExecTicks relative to full-detail):\n",
		sc.Period, sc.Window, sc.Warmup)
	b.WriteString(d.Sampling.render())
	return d, b.String(), nil
}
