package core

import (
	"context"
	"fmt"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/stats"
)

// RelEntry is one bar of Figures 1–4: a simulator's predicted execution
// time relative to the hardware ("a value of 1.0 means the simulator
// reported the same time as the hardware; values below 1.0 signify that
// the simulator was executing faster than hardware").
type RelEntry struct {
	Config   string
	Relative float64
	Sim      machine.Result
}

// CompareResult is a full simulators-vs-hardware comparison.
type CompareResult struct {
	Procs   int
	Configs []string
	Rows    map[string][]RelEntry // workload -> entries in config order
	Order   []string              // workload order
	HW      map[string]Measurement
}

// Entry returns the entry for (workload, config name).
func (c CompareResult) Entry(workload, config string) (RelEntry, bool) {
	for _, e := range c.Rows[workload] {
		if e.Config == config {
			return e, true
		}
	}
	return RelEntry{}, false
}

// MaxAbsError returns the largest |relative-1| across all entries.
func (c CompareResult) MaxAbsError() float64 {
	worst := 0.0
	for _, row := range c.Rows {
		for _, e := range row {
			if d := stats.RelError(e.Relative, 1); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Study compares a set of simulator configurations against the hardware
// reference.
type Study struct {
	Ref     *Reference
	Configs []machine.Config
}

// NewStudy builds a study over the given simulator configurations.
func NewStudy(ref *Reference, configs ...machine.Config) *Study {
	return &Study{Ref: ref, Configs: configs}
}

// Compare runs every workload on the hardware (averaged) and on every
// simulator (once: simulators are deterministic) at the given processor
// count, and returns the relative execution times. The whole sweep —
// hardware repeats and simulator runs for all workloads — is submitted
// as one batch, so a parallel pool overlaps everything; results are
// identical to serial execution regardless of worker count.
func (s *Study) Compare(workloads []Workload, procs int) (CompareResult, error) {
	out := CompareResult{
		Procs: procs,
		Rows:  make(map[string][]RelEntry),
		HW:    make(map[string]Measurement),
	}
	for _, cfg := range s.Configs {
		out.Configs = append(out.Configs, cfg.Name)
	}

	var jobs []runner.Job
	hwOff := make([]int, len(workloads))  // offset of each workload's hardware repeats
	simOff := make([]int, len(workloads)) // offset of each workload's simulator runs
	for wi, w := range workloads {
		out.Order = append(out.Order, w.Name)
		prog := w.Make(procs)
		hwOff[wi] = len(jobs)
		jobs = append(jobs, s.Ref.measureJobs(prog, procs)...)
		simOff[wi] = len(jobs)
		for _, cfg := range s.Configs {
			cfg.Procs = procs
			jobs = append(jobs, runner.Job{Config: cfg, Prog: prog})
		}
	}
	results, err := s.Ref.Pool.Run(context.Background(), jobs)
	if err != nil {
		return out, fmt.Errorf("study at %dp: %w", procs, err)
	}

	for wi, w := range workloads {
		hwMeas := measurementFrom(results[hwOff[wi]:simOff[wi]])
		out.HW[w.Name] = hwMeas
		for ci, cfg := range s.Configs {
			res := results[simOff[wi]+ci]
			out.Rows[w.Name] = append(out.Rows[w.Name], RelEntry{
				Config:   cfg.Name,
				Relative: float64(res.Exec) / float64(hwMeas.Mean),
				Sim:      res,
			})
		}
	}
	return out, nil
}
