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
// tuned-vs-untuned trend study across the widened machine matrix.
type WorkloadSweepData struct {
	Sizes []int
	Trend []WorkloadTrendRow
}

// SweepWorkloads is the default worksweep matrix: the four server-class
// registry workloads.
var SweepWorkloads = []string{"barnes", "gups", "oltp", "webserve"}

// ExperimentWorkloadSweep reruns the paper's trend study over registry
// workloads (default SweepWorkloads) at server-class machine sizes
// (default core.WideSizes, 32-128 nodes): does the simulator predict
// the hardware's speedup curve, before and after closing the
// calibration loop? Each workload resolves through the registry at the
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

	for _, name := range names {
		w := s.Scale.Workload(name, nil)
		curves, err := s.Ref.Speedups(w, sweep, untuned, tuned)
		if err != nil {
			return d, "", err
		}
		hw := curves[0]
		d.Trend = append(d.Trend, WorkloadTrendRow{
			Workload: w.Name,
			Procs:    sweep,
			Hardware: hw.Speedup,
			Untuned:  core.CompareTrend(hw, curves[1]),
			Tuned:    core.CompareTrend(hw, curves[2]),
		})
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
	return d, b.String(), nil
}
