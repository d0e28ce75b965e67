// Package obs is what sits above a machine run's counters: the
// Collector that merges every run a pool finishes, the Report the CLIs'
// -metrics-out flag writes, and its Prometheus rendering. The counters
// themselves are the subsystems' own stats types, gathered once in
// machine.Result.Metrics; obs declares none of them.
//
// The counters are deliberately plain fields, not atomics. A machine
// run is single-goroutine — the event loop drives every subsystem of
// one machine from one goroutine, and the runner pool isolates
// concurrent runs completely (each machine.Run builds its own queue,
// caches, directory, and network; nothing is shared, a property pinned
// under the race detector). Making the counters atomic would buy no
// correctness and would put LOCK-prefixed read-modify-writes on the
// simulation hot path, breaking the 0 allocs/op + minimal-overhead
// contract. Cross-run aggregation is the only concurrent step, and it
// happens in Collector, behind a mutex, once per run.
package obs

import "flashsim/internal/machine"

// RunMetrics is one row of the report: the counters of the runs
// accumulated into it, under the labels they share.
type RunMetrics struct {
	// Config names the machine configuration; Workload names the
	// program. Merged records blank a label when sources disagree.
	Config   string
	Workload string
	Procs    int
	// Runs is the number of runs accumulated into this record.
	Runs uint64

	Instructions uint64
	// ExecTicks is the timed parallel section; TotalTicks the full run.
	ExecTicks  uint64
	TotalTicks uint64

	machine.Metrics
}

// Merge accumulates o into m. Labels (Config, Workload, Procs) are kept
// when they agree across every source record and blanked/zeroed when
// they do not, so an aggregate over a sweep does not masquerade as one
// configuration.
func (m *RunMetrics) Merge(o RunMetrics) {
	if m.Runs == 0 {
		m.Config, m.Workload, m.Procs = o.Config, o.Workload, o.Procs
	} else {
		if m.Config != o.Config {
			m.Config = ""
		}
		if m.Workload != o.Workload {
			m.Workload = ""
		}
		if m.Procs != o.Procs {
			m.Procs = 0
		}
	}
	m.Runs += o.Runs
	m.Instructions += o.Instructions
	m.ExecTicks += o.ExecTicks
	m.TotalTicks += o.TotalTicks
	m.Metrics.Add(o.Metrics)
}
