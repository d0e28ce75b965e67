package core

import (
	"context"
	"fmt"

	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
)

// Workload names a program parameterized only by processor count, so
// the same workload can run on machines of different sizes.
type Workload struct {
	Name string
	Make func(procs int) emitter.Program
}

// Measurement is an averaged set of hardware runs ("we take the average
// of at least 5 hardware runs to avoid reporting any spurious system
// effects").
type Measurement struct {
	Mean sim.Ticks
	Min  sim.Ticks
	Max  sim.Ticks
	Runs []machine.Result
}

// MeanSeconds returns the mean parallel-section time in seconds.
func (m Measurement) MeanSeconds() float64 { return float64(m.Mean) / sim.TickHz }

// measurementFrom summarizes a set of repeat runs.
func measurementFrom(runs []machine.Result) Measurement {
	execs := make([]sim.Ticks, len(runs))
	for i, r := range runs {
		execs[i] = r.Exec
	}
	return Measurement{
		Mean: stats.Mean(execs),
		Min:  stats.Min(execs),
		Max:  stats.Max(execs),
		Runs: runs,
	}
}

// Reference is the hardware gold standard: the maximum-fidelity machine
// measured with run-to-run jitter and averaging, exposed the way a real
// machine would be — you can run programs on it and read wall times, but
// its internals are not a simulator you can instrument.
type Reference struct {
	// Repeats is the number of runs averaged per measurement (>= 1;
	// default 5, per the methodology).
	Repeats int

	// Pool executes the repeat runs and every run of the Study,
	// Calibrator, TrendAnalyzer and Walk built on this Reference, so one
	// pool (with a store) lets every consumer reuse every run.
	// NewReference starts it serial: strictly sequential, no store.
	Pool *runner.Pool

	base machine.Config
}

// NewReference returns the hardware standard sized at procs processors.
// scaled selects the 1/16-scale cache geometry (see EXPERIMENTS.md).
func NewReference(procs int, scaled bool) *Reference {
	return &Reference{Repeats: 5, Pool: runner.Serial(), base: hw.Config(procs, scaled)}
}

// Scaled reports whether the 1/16-scale geometry is in use.
func (r *Reference) Scaled() bool { return r.base.L2.Size != 2<<20 }

// ConfigAt returns the reference machine configuration resized to procs
// processors (for microbenchmarks that need a specific node count).
func (r *Reference) ConfigAt(procs int) machine.Config {
	cfg := r.base
	cfg.Procs = procs
	return cfg
}

// measureJobs returns the Repeats jobs of one measurement: the same
// program on the same machine with distinct seeds, exactly the batch
// MeasureAt averages. Exposed (package-internally) so Study and
// Calibrator can splice reference measurements into larger batches.
func (r *Reference) measureJobs(prog emitter.Program, procs int) []runner.Job {
	n := r.Repeats
	if n < 1 {
		n = 1
	}
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = runner.Job{Config: r.ConfigAt(procs), Prog: prog, Seed: uint64(i + 1)}
	}
	return jobs
}

// Measure runs prog on the hardware Repeats times with distinct seeds
// and returns the averaged measurement.
func (r *Reference) Measure(prog emitter.Program) (Measurement, error) {
	return r.MeasureAt(prog, r.base.Procs)
}

// MeasureAt is Measure on a machine resized to procs processors.
func (r *Reference) MeasureAt(prog emitter.Program, procs int) (Measurement, error) {
	runs, err := r.Pool.Run(context.Background(), r.measureJobs(prog, procs))
	if err != nil {
		return Measurement{}, fmt.Errorf("reference: %w", err)
	}
	return measurementFrom(runs), nil
}
