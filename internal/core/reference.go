package core

import (
	"context"
	"fmt"

	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/sim"
)

// Workload names a program parameterized only by processor count, so
// the same workload can run on machines of different sizes.
type Workload struct {
	Name string
	Make func(procs int) emitter.Program
}

// Measurement is one point of a Batch: an averaged set of hardware runs
// ("we take the average of at least 5 hardware runs to avoid reporting
// any spurious system effects"), or a simulator's one run.
type Measurement struct {
	Mean sim.Ticks
	Min  sim.Ticks
	Max  sim.Ticks
	Runs []machine.Result
}

// MeanSeconds returns the mean parallel-section time in seconds.
func (m Measurement) MeanSeconds() float64 { return float64(m.Mean) / sim.TickHz }

// measurementFrom summarizes a set of repeat runs (at least one). The
// mean truncates: "the average of at least 5 runs" in whole ticks.
func measurementFrom(runs []machine.Result) Measurement {
	m := Measurement{Min: runs[0].Exec, Max: runs[0].Exec, Runs: runs}
	var sum sim.Ticks
	for _, r := range runs {
		sum += r.Exec
		m.Min = min(m.Min, r.Exec)
		m.Max = max(m.Max, r.Exec)
	}
	m.Mean = sum / sim.Ticks(len(runs))
	return m
}

// Reference is the hardware gold standard: the maximum-fidelity machine
// measured with run-to-run jitter and averaging, exposed the way a real
// machine would be — you can run programs on it and read wall times, but
// its internals are not a simulator you can instrument.
type Reference struct {
	// Repeats is the number of runs averaged per measurement (>= 1;
	// default 5, per the methodology).
	Repeats int

	// Pool executes every Batch on this Reference — the repeat runs and
	// every run of the Study, Calibrator, Speedups and Walk built on it —
	// so one pool (with a store) lets every consumer reuse every run.
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

// Batch is the one way core measures anything: a list of points, each
// a hardware measurement (Repeats seeded runs of the reference,
// averaged) or a simulator run (one: simulators are deterministic),
// submitted to the reference's pool as one batch so its workers overlap
// every point and runs of one program share an emission.
type Batch struct {
	ref  *Reference
	jobs []runner.Job
	ends []int // ends[i] is the end of point i's runs in jobs
}

// Batch returns an empty batch on r.
func (r *Reference) Batch() *Batch { return &Batch{ref: r} }

// HW adds a hardware point: prog on the reference resized to procs,
// Repeats times with seeds 1, 2, ...
func (b *Batch) HW(prog emitter.Program, procs int) *Batch {
	for i := range max(b.ref.Repeats, 1) {
		b.jobs = append(b.jobs, runner.Job{Config: b.ref.ConfigAt(procs), Prog: prog, Seed: uint64(i + 1)})
	}
	b.ends = append(b.ends, len(b.jobs))
	return b
}

// Sim adds a simulator point: one run of prog on cfg.
func (b *Batch) Sim(cfg machine.Config, prog emitter.Program) *Batch {
	b.jobs = append(b.jobs, runner.Job{Config: cfg, Prog: prog})
	b.ends = append(b.ends, len(b.jobs))
	return b
}

// Run executes the batch and returns one Measurement per point, in the
// order the points were added; a simulator point's Mean, Min and Max
// are its one run's.
func (b *Batch) Run() ([]Measurement, error) {
	results, err := b.ref.Pool.Run(context.Background(), b.jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, len(b.ends))
	start := 0
	for i, end := range b.ends {
		out[i] = measurementFrom(results[start:end:end])
		start = end
	}
	return out, nil
}

// Run executes one simulator run of prog on cfg through the pool, so
// it memoizes and counts like any batch.
func (r *Reference) Run(cfg machine.Config, prog emitter.Program) (machine.Result, error) {
	ms, err := r.Batch().Sim(cfg, prog).Run()
	if err != nil {
		return machine.Result{}, err
	}
	return ms[0].Runs[0], nil
}

// Measure runs prog on the hardware Repeats times with distinct seeds
// and returns the averaged measurement.
func (r *Reference) Measure(prog emitter.Program) (Measurement, error) {
	return r.MeasureAt(prog, r.base.Procs)
}

// MeasureAt is Measure on a machine resized to procs processors.
func (r *Reference) MeasureAt(prog emitter.Program, procs int) (Measurement, error) {
	ms, err := r.Batch().HW(prog, procs).Run()
	if err != nil {
		return Measurement{}, fmt.Errorf("reference: %w", err)
	}
	return ms[0], nil
}
