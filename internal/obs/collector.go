package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"flashsim/internal/machine"
)

// ReportSchema versions the metrics-report JSON layout. 2: directory
// case counts are Dir.CaseCounts, an array indexed by proto.Case, where
// schema 1 had the name-keyed Dir.Cases.
const ReportSchema = 2

// RunnerCounters is the run-execution view of a batch: how the pool
// sourced the runs whose metrics the report aggregates.
type RunnerCounters struct {
	// Jobs is the number of jobs completed (run, cached, or failed).
	Jobs int64
	// Ran is the number of actual simulator executions (pool misses).
	Ran int64
	// CacheHits is the number of jobs satisfied from the memo store.
	CacheHits int64
	// Failed is the number of jobs that returned an error.
	Failed int64
	// Emissions is the number of programs launched; the runs of one
	// group share one.
	Emissions int64
	// WallNS is wall-clock time across batches; CPUNS sums execution
	// time, a shared emission's once (their ratio is the pool's
	// parallel speedup).
	WallNS int64
	CPUNS  int64
}

// Report is the -metrics-out JSON document: pool-level counters plus
// the per-run metrics accumulated, in total and broken out per
// (config, workload) pair.
type Report struct {
	Schema int
	Runner RunnerCounters
	Total  RunMetrics
	// PerConfig is sorted by (Config, Workload, Procs) for stable
	// output.
	PerConfig []RunMetrics
}

// JSON renders the report as indented JSON.
func (r Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the report to path as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := r.JSON()
	if err != nil {
		return fmt.Errorf("metrics report: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("metrics report: %w", err)
	}
	return nil
}

// Collector aggregates the counters of the concurrent runs of a pool.
// It is the one concurrency boundary of the package: per-run counters
// are plain fields (one goroutine per machine), and the collector's
// mutex serializes only the end-of-run Record calls.
type Collector struct {
	mu        sync.Mutex
	total     RunMetrics
	perConfig map[configKey]*RunMetrics
}

// configKey identifies a PerConfig row.
type configKey struct {
	config, workload string
	procs            int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{perConfig: make(map[configKey]*RunMetrics)}
}

// Record merges one run into the collector, under r's own labels. Safe
// for concurrent use; a run whose row exists allocates nothing (flashd
// records every job it serves, memo hits included).
func (c *Collector) Record(r machine.Result) {
	m := RunMetrics{
		Config:       r.Config,
		Workload:     r.Workload,
		Procs:        r.Procs,
		Runs:         1,
		Instructions: r.Instructions,
		ExecTicks:    uint64(r.Exec),
		TotalTicks:   uint64(r.Total),
		Metrics:      r.Metrics,
	}
	key := configKey{r.Config, r.Workload, r.Procs}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total.Merge(m)
	pc, ok := c.perConfig[key]
	if !ok {
		pc = &RunMetrics{}
		c.perConfig[key] = pc
	}
	pc.Merge(m)
}

// Runs returns how many runs have been recorded.
func (c *Collector) Runs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total.Runs
}

// Snapshot assembles the report from everything recorded so far. The
// caller fills in Runner from the pool's stats.
func (c *Collector) Snapshot() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := Report{Schema: ReportSchema, Total: c.total}
	rep.PerConfig = make([]RunMetrics, 0, len(c.perConfig))
	for _, pc := range c.perConfig {
		rep.PerConfig = append(rep.PerConfig, *pc)
	}
	sort.Slice(rep.PerConfig, func(i, j int) bool {
		a, b := rep.PerConfig[i], rep.PerConfig[j]
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Procs < b.Procs
	})
	return rep
}
