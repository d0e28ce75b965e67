package core

import (
	"context"
	"fmt"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
)

// Curve is one speedup line of Figures 5–7: execution time at each
// processor count, normalized to the same platform's uniprocessor time.
type Curve struct {
	Label   string
	Procs   []int
	Exec    []sim.Ticks
	Speedup []float64
}

// At returns the speedup at processor count p (0 if absent).
func (c Curve) At(p int) float64 {
	for i, q := range c.Procs {
		if q == p {
			return c.Speedup[i]
		}
	}
	return 0
}

// TrendAnalyzer produces speedup curves for the hardware reference and
// for simulator configurations, the trend studies of §3.2: "architects
// rely on being able to predict the relative magnitude of performance
// changes across a variety of alternative designs."
type TrendAnalyzer struct {
	Ref *Reference
}

// NewTrendAnalyzer returns an analyzer against ref.
func NewTrendAnalyzer(ref *Reference) *TrendAnalyzer {
	return &TrendAnalyzer{Ref: ref}
}

// HardwareSpeedup measures the reference's speedup curve for w over the
// given processor counts. All points (and their jitter repeats) run as
// one batch.
func (t *TrendAnalyzer) HardwareSpeedup(w Workload, procs []int) (Curve, error) {
	c := Curve{Label: "FLASH 150MHz", Procs: procs}
	var jobs []runner.Job
	offs := make([]int, len(procs))
	for i, p := range procs {
		offs[i] = len(jobs)
		jobs = append(jobs, t.Ref.measureJobs(w.Make(p), p)...)
	}
	results, err := t.Ref.Pool.Run(context.Background(), jobs)
	if err != nil {
		return c, fmt.Errorf("hardware %s sweep: %w", w.Name, err)
	}
	var base sim.Ticks
	for i := range procs {
		end := len(results)
		if i+1 < len(procs) {
			end = offs[i+1]
		}
		meas := measurementFrom(results[offs[i]:end])
		c.Exec = append(c.Exec, meas.Mean)
		if i == 0 {
			base = meas.Mean
		}
		c.Speedup = append(c.Speedup, scaledSpeedup(base, procs[0], meas.Mean))
	}
	return c, nil
}

// SimSpeedup measures a simulator's predicted speedup curve; the whole
// processor sweep runs as one batch.
func (t *TrendAnalyzer) SimSpeedup(cfg machine.Config, w Workload, procs []int) (Curve, error) {
	c := Curve{Label: cfg.Name, Procs: procs}
	jobs := make([]runner.Job, len(procs))
	for i, p := range procs {
		cp := cfg
		cp.Procs = p
		jobs[i] = runner.Job{Config: cp, Prog: w.Make(p)}
	}
	results, err := t.Ref.Pool.Run(context.Background(), jobs)
	if err != nil {
		return c, fmt.Errorf("%s %s sweep: %w", cfg.Name, w.Name, err)
	}
	var base sim.Ticks
	for i, res := range results {
		c.Exec = append(c.Exec, res.Exec)
		if i == 0 {
			base = res.Exec
		}
		c.Speedup = append(c.Speedup, scaledSpeedup(base, procs[0], res.Exec))
	}
	return c, nil
}

// scaledSpeedup normalizes to the first measured point: if the curve
// starts at procs[0] = 1 this is the usual t1/tp; if the sweep starts
// higher (Figure 7 reports 8 and 16 processors) the speedup is scaled
// as procs[0] * t_first / t_p.
func scaledSpeedup(base sim.Ticks, baseProcs int, exec sim.Ticks) float64 {
	if exec == 0 {
		return 0
	}
	return float64(baseProcs) * float64(base) / float64(exec)
}

// TrendError summarizes how well a simulator curve tracks the hardware
// curve: the maximum and mean absolute relative error in predicted
// speedup across the sweep.
type TrendError struct {
	Label    string
	MaxErr   float64
	MeanErr  float64
	FinalErr float64 // at the largest processor count
}

// CompareTrend computes the trend error of sim against hw (curves must
// share proc points).
func CompareTrend(hw, simc Curve) TrendError {
	te := TrendError{Label: simc.Label}
	var errs []float64
	for i := range hw.Procs {
		if i >= len(simc.Speedup) || hw.Speedup[i] == 0 {
			continue
		}
		e := stats.RelError(simc.Speedup[i], hw.Speedup[i])
		errs = append(errs, e)
		te.FinalErr = e
		te.MaxErr = max(te.MaxErr, e)
	}
	te.MeanErr = stats.Mean(errs)
	return te
}
