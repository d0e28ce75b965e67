package core

import (
	"fmt"

	"flashsim/internal/machine"
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

	b := s.Ref.Batch()
	for _, w := range workloads {
		out.Order = append(out.Order, w.Name)
		prog := w.Make(procs)
		b.HW(prog, procs)
		for _, cfg := range s.Configs {
			cfg.Procs = procs
			b.Sim(cfg, prog)
		}
	}
	ms, err := b.Run()
	if err != nil {
		return out, fmt.Errorf("study at %dp: %w", procs, err)
	}

	for wi, w := range workloads {
		row := ms[wi*(1+len(s.Configs)):]
		out.HW[w.Name] = row[0]
		for ci, cfg := range s.Configs {
			res := row[1+ci].Runs[0]
			out.Rows[w.Name] = append(out.Rows[w.Name], RelEntry{
				Config:   cfg.Name,
				Relative: float64(res.Exec) / float64(row[0].Mean),
				Sim:      res,
			})
		}
	}
	return out, nil
}
