package runner

import (
	"fmt"
	"time"

	"flashsim/internal/obs"
)

// Stats is a snapshot of a pool's lifetime activity.
type Stats struct {
	// Jobs is the number of jobs completed (run, cached, or failed).
	Jobs int64
	// Ran is the number of actual machine.Run executions.
	Ran int64
	// CacheHits is the number of jobs satisfied from the store.
	CacheHits int64
	// Failed is the number of jobs that returned an error (including
	// cancellations and recovered panics).
	Failed int64
	// Emissions is the number of programs launched: one feeds every
	// run of a group, so Ran/Emissions is the sharing achieved.
	Emissions int64
	// Wall is the wall-clock time spent inside Run/RunAll batches; CPU
	// is the summed execution time of the individual runs, counting a
	// group that ran from one emission once, for its elapsed time.
	// CPU/Wall is the realized parallel speedup.
	Wall time.Duration
	CPU  time.Duration
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Jobs:      p.jobs.Load(),
		Ran:       p.ran.Load(),
		CacheHits: p.hits.Load(),
		Failed:    p.failed.Load(),
		Emissions: p.emissions.Load(),
		Wall:      time.Duration(p.wall.Load()),
		CPU:       time.Duration(p.cpu.Load()),
	}
}

// Counters converts the snapshot into the metrics report's runner
// section.
func (s Stats) Counters() obs.RunnerCounters {
	return obs.RunnerCounters{
		Jobs:      s.Jobs,
		Ran:       s.Ran,
		CacheHits: s.CacheHits,
		Failed:    s.Failed,
		Emissions: s.Emissions,
		WallNS:    int64(s.Wall),
		CPUNS:     int64(s.CPU),
	}
}

// Speedup returns CPU/Wall — how much faster the batches completed
// than a serial execution of the same runs would have (1.0 for a
// serial pool; higher when workers overlap or the cache hits).
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.CPU) / float64(s.Wall)
}

// String renders the snapshot the way the CLIs print it.
func (s Stats) String() string {
	out := fmt.Sprintf("%d jobs (%d run from %d emissions, %d cached", s.Jobs, s.Ran, s.Emissions, s.CacheHits)
	if s.Failed > 0 {
		out += fmt.Sprintf(", %d failed", s.Failed)
	}
	out += fmt.Sprintf("), wall %v, cpu %v",
		s.Wall.Round(time.Millisecond), s.CPU.Round(time.Millisecond))
	if sp := s.Speedup(); sp > 0 {
		out += fmt.Sprintf(", %.1fx", sp)
	}
	return out
}

// Sub returns the activity between an earlier snapshot and this one.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Jobs:      s.Jobs - earlier.Jobs,
		Ran:       s.Ran - earlier.Ran,
		CacheHits: s.CacheHits - earlier.CacheHits,
		Failed:    s.Failed - earlier.Failed,
		Emissions: s.Emissions - earlier.Emissions,
		Wall:      s.Wall - earlier.Wall,
		CPU:       s.CPU - earlier.CPU,
	}
}
