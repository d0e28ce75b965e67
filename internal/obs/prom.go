package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"flashsim/internal/proto"
)

// WritePrometheus renders the report in the Prometheus text exposition
// format (version 0.0.4): `# HELP`/`# TYPE` comment pairs followed by
// `name{labels} value` samples. It is the same data -metrics-out writes
// as JSON, re-shaped for a scrape endpoint — flashd's /metrics is this
// function applied to a live Collector snapshot, so the daemon's scrape
// and the CLI's report can never disagree about a counter.
//
// Counter values are emitted as integers; durations become float64
// seconds (the Prometheus base unit for time). Per-(config, workload,
// procs) breakouts carry their identity as labels on a small set of
// headline series rather than exploding every subsystem counter into
// labeled form.
func (r Report) WritePrometheus(w io.Writer) error {
	p := promWriter{w: w}

	p.counter("flashsim_runner_jobs_total", "Jobs completed by the run pool (run, cached, or failed).", r.Runner.Jobs)
	p.counter("flashsim_runner_runs_total", "Actual simulator executions (pool cache misses).", r.Runner.Ran)
	p.counter("flashsim_runner_cache_hits_total", "Jobs satisfied from the memo store.", r.Runner.CacheHits)
	p.counter("flashsim_runner_failed_total", "Jobs that returned an error.", r.Runner.Failed)
	p.counter("flashsim_runner_emissions_total", "Programs launched; the runs of one group share one emission.", r.Runner.Emissions)
	p.seconds("flashsim_runner_wall_seconds_total", "Wall-clock seconds across pool batches.", r.Runner.WallNS)
	p.seconds("flashsim_runner_cpu_seconds_total", "Summed per-job execution seconds.", r.Runner.CPUNS)

	t := r.Total
	p.counter("flashsim_runs_total", "Simulation runs recorded by the collector.", int64(t.Runs))
	p.counter("flashsim_instructions_total", "Committed instructions across recorded runs.", int64(t.Instructions))
	p.counter("flashsim_exec_ticks_total", "Simulated ticks in the timed parallel sections.", int64(t.ExecTicks))
	p.counter("flashsim_total_ticks_total", "Simulated ticks across full runs.", int64(t.TotalTicks))

	p.counter("flashsim_queue_scheduled_total", "Events inserted into the simulation event queues.", int64(t.Queue.Scheduled))
	p.counter("flashsim_queue_fired_total", "Events dispatched by the simulation event queues.", int64(t.Queue.Fired))
	p.counter("flashsim_queue_recycled_total", "Pooled events reused from queue free lists.", int64(t.Queue.Recycled))

	p.counter("flashsim_emitter_batches_total", "Instruction batches consumed by the processor models.", int64(t.Emitter.Batches))
	p.counter("flashsim_emitter_instructions_total", "Instructions read from the emitter streams.", int64(t.Emitter.Instructions))
	p.counter("flashsim_emitter_slab_reuses_total", "Batch buffers recycled to their producers.", int64(t.Emitter.SlabReuses))

	p.levelCounter("flashsim_cache_hits_total", "Cache hits by level.", t.L1.Hits, t.L2.Hits)
	p.levelCounter("flashsim_cache_misses_total", "Cache misses by level.", t.L1.Misses, t.L2.Misses)
	p.levelCounter("flashsim_cache_evictions_total", "Cache evictions by level.", t.L1.Evictions, t.L2.Evictions)
	p.levelCounter("flashsim_cache_writebacks_total", "Cache writebacks by level.", t.L1.Writebacks, t.L2.Writebacks)
	p.levelCounter("flashsim_cache_invalidations_total", "External invalidations received by level.", t.L1.Invalidations, t.L2.Invalidations)
	p.levelCounter("flashsim_cache_interventions_total", "External downgrades/forwards served by level.", t.L1.Interventions, t.L2.Interventions)

	p.counter("flashsim_tlb_hits_total", "TLB hits.", int64(t.TLB.Hits))
	p.counter("flashsim_tlb_misses_total", "TLB misses (refills).", int64(t.TLB.Misses))
	p.counter("flashsim_tlb_evictions_total", "TLB entry evictions.", int64(t.TLB.Evictions))

	p.counter("flashsim_dir_reads_total", "Coherence-directory read requests.", int64(t.Dir.Reads))
	p.counter("flashsim_dir_writes_total", "Coherence-directory write requests.", int64(t.Dir.Writes))
	p.counter("flashsim_dir_writebacks_total", "Coherence-directory writebacks.", int64(t.Dir.Writebacks))
	p.counter("flashsim_dir_invalidations_total", "Coherence-directory invalidations sent.", int64(t.Dir.Invalidations))
	p.counter("flashsim_dir_transitions_total", "Directory (state, owner) transitions.", int64(t.Dir.Transitions))
	p.counter("flashsim_dir_stale_invals_total", "Stale invalidations observed.", int64(t.Dir.StaleInvals))
	// Cases that occurred, by name; a run set with none has no series.
	var cases []proto.Case
	for c, n := range t.Dir.CaseCounts {
		if n != 0 {
			cases = append(cases, proto.Case(c))
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].String() < cases[j].String() })
	if len(cases) > 0 {
		p.help("flashsim_dir_cases_total", "Protocol-case occurrences (Table 3 taxonomy).", "counter")
	}
	for _, c := range cases {
		p.sample("flashsim_dir_cases_total", map[string]string{"case": c.String()}, fmt.Sprintf("%d", t.Dir.CaseCounts[c]))
	}

	p.counter("flashsim_net_messages_total", "Interconnect messages.", int64(t.Net.Messages))
	p.counter("flashsim_net_bytes_total", "Interconnect payload bytes.", int64(t.Net.Bytes))
	p.counter("flashsim_net_hops_total", "Interconnect message hops.", int64(t.Net.Hops))

	p.counter("flashsim_os_pages_mapped_total", "Pages mapped at end of run.", int64(t.OS.PagesMapped))
	p.counter("flashsim_os_cold_faults_total", "Charged cold page faults.", int64(t.OS.ColdFaults))
	p.counter("flashsim_os_syscalls_total", "Charged system calls.", int64(t.OS.Syscalls))

	if len(r.PerConfig) > 0 {
		p.help("flashsim_config_runs_total", "Runs recorded per (config, workload, procs).", "counter")
		for _, m := range r.PerConfig {
			p.sample("flashsim_config_runs_total", configLabels(m), fmt.Sprintf("%d", m.Runs))
		}
		p.help("flashsim_config_instructions_total", "Instructions per (config, workload, procs).", "counter")
		for _, m := range r.PerConfig {
			p.sample("flashsim_config_instructions_total", configLabels(m), fmt.Sprintf("%d", m.Instructions))
		}
		p.help("flashsim_config_exec_ticks_total", "Timed-section ticks per (config, workload, procs).", "counter")
		for _, m := range r.PerConfig {
			p.sample("flashsim_config_exec_ticks_total", configLabels(m), fmt.Sprintf("%d", m.ExecTicks))
		}
	}
	return p.err
}

func configLabels(m RunMetrics) map[string]string {
	return map[string]string{
		"config":   m.Config,
		"workload": m.Workload,
		"procs":    fmt.Sprintf("%d", m.Procs),
	}
}

// promWriter accumulates exposition-format output, retaining the first
// write error so callers check once at the end.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) help(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name string, labels map[string]string, value string) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, value)
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabel(labels[k]) + `"`
	}
	p.printf("%s{%s} %s\n", name, strings.Join(parts, ","), value)
}

func (p *promWriter) counter(name, help string, v int64) {
	p.help(name, help, "counter")
	p.sample(name, nil, fmt.Sprintf("%d", v))
}

func (p *promWriter) seconds(name, help string, ns int64) {
	p.help(name, help, "counter")
	p.sample(name, nil, fmt.Sprintf("%g", float64(ns)/1e9))
}

func (p *promWriter) levelCounter(name, help string, l1, l2 uint64) {
	p.help(name, help, "counter")
	p.sample(name, map[string]string{"level": "l1"}, fmt.Sprintf("%d", l1))
	p.sample(name, map[string]string{"level": "l2"}, fmt.Sprintf("%d", l2))
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}
