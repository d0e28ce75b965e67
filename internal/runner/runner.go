// Package runner is the run-execution subsystem between the experiment
// logic (core, harness) and the machine model: a bounded worker pool
// that fans independent, seed-deterministic simulation runs out across
// cores, backed by a content-addressed store that memoizes results so
// no (config, workload, procs, seed) combination is ever simulated
// twice.
//
// Every experiment in the study is a batch of such runs — the ≥5-run
// jitter averages of core.Reference, the 7-config × 4-app sweeps of
// core.Study, the 1–16p speedup curves of core.Reference.Speedups, and
// the Calibrator's repeated snbench probes. Because machine.Run is a pure
// function of (Config, Program), executing a batch concurrently and
// returning results in submission order is bit-identical to running it
// serially, whatever the worker count. Because a program's instruction
// stream is a function of the program alone, the runs of a batch that
// share a program run from one emission of it (machine.RunShared): the
// pool groups a batch's jobs by program, and a group holds one worker.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/obs"
)

// Job describes one simulation run: a machine configuration and the
// program to execute on it. Seed, when set, overrides Config.Seed, so
// that a batch of repeats over one base configuration can be expressed
// without copying the whole Config by hand.
type Job struct {
	Config machine.Config
	Prog   emitter.Program
	// Replay, when non-nil, makes this a trace-driven job: the machine
	// replays the prepared image instead of emitting and modeling Prog
	// (which is ignored). Replay jobs memoize under ReplayFingerprint
	// when the image carries a trace artifact address; images without
	// one always execute.
	Replay *machine.ReplayImage
	// Seed overrides Config.Seed when nonzero.
	Seed uint64

	// key is the job's Fingerprint once Keyed has computed it; nothing
	// else sets it, so a job is never filed under a key not its own.
	key string
}

// config returns the effective configuration, Seed applied.
func (j Job) config() machine.Config {
	cfg := j.Config
	if j.Seed != 0 {
		cfg.Seed = j.Seed
	}
	return cfg
}

// Keyed returns j carrying its own Fingerprint, so that every later use
// of the key — a front end's admission, the pool's store lookup and
// fill — reads it instead of encoding the configuration again. Key a
// job after its last change; then run it.
func (j Job) Keyed() Job {
	j.key = j.Fingerprint()
	return j
}

// Fingerprint returns the job's content-addressed store key. Replay
// jobs key on the trace artifact's address chained through
// ReplayFingerprint, so they never alias execution-driven results; a
// replay of an unaddressed image gets an empty key (not memoizable).
func (j Job) Fingerprint() string {
	if j.key != "" {
		return j.key
	}
	if j.Replay != nil {
		if j.Replay.Artifact() == "" {
			return ""
		}
		return ReplayFingerprint(j.config(), j.Replay.Artifact())
	}
	return Fingerprint(j.config(), j.Prog)
}

// Workload names what the job runs, for error messages and logs.
func (j Job) Workload() string {
	if j.Replay != nil {
		return j.Replay.Workload() + " (replay)"
	}
	return j.Prog.FullName()
}

// Outcome is the per-job result of a batch: exactly one of Result or
// Err is meaningful. Cached reports a memoized result (no machine.Run
// was performed).
type Outcome struct {
	Result machine.Result
	Err    error
	Cached bool
}

// defaultWorkers caches the one runtime.NumCPU lookup the package ever
// makes (the call walks the OS affinity mask); every Pool that asks for
// "all cores" shares it.
var defaultWorkers = runtime.NumCPU()

// DefaultWorkers returns the worker count a Pool resolves to when none
// is given: the machine's CPU count, looked up once at init.
func DefaultWorkers() int { return defaultWorkers }

// Pool executes batches of Jobs on a bounded set of workers. A Pool is
// safe for concurrent use; its zero worker count resolves to
// DefaultWorkers. The pool is stateless apart from its optional Store
// and its running Stats, so one pool can serve every experiment in a
// process (and should, so the cache is shared).
//
// Concurrent jobs never share simulation state: each machine.Run builds
// its own event queue, and the queue's event free list (internal/sim)
// is per-queue, so pooled events are recycled strictly within one run —
// a worker goroutine inherits nothing from events fired by another
// run's queue. TestConcurrentRunsShareNoQueueState pins this under the
// race detector.
type Pool struct {
	workers int
	store   Backend
	metrics *obs.Collector
	// sem bounds the concurrency of single-job submissions (RunOne) at
	// the pool's worker count; batch submissions (RunAll) bound
	// themselves by spawning exactly `workers` goroutines.
	sem chan struct{}

	jobs      atomic.Int64
	ran       atomic.Int64
	hits      atomic.Int64
	failed    atomic.Int64
	emissions atomic.Int64 // programs launched
	wall      atomic.Int64 // nanoseconds across Run/RunAll calls
	cpu       atomic.Int64 // execution nanoseconds, a shared emission's once
}

// New returns a pool with the given concurrency. workers <= 0 selects
// DefaultWorkers; workers == 1 runs one emission at a time, whose
// members (the runs of one group) interleave as goroutines. store is
// any memo Backend — a *Store or a bare *DiskBackend — and may be nil
// to disable memoization.
func New(workers int, store Backend) *Pool {
	if workers <= 0 {
		workers = defaultWorkers
	}
	return &Pool{workers: workers, store: store, sem: make(chan struct{}, workers)}
}

// Serial returns a one-worker pool with no store — the behavior of
// calling machine.Run in a loop, which is the default for every
// consumer that is not handed an explicit pool.
func Serial() *Pool { return New(1, nil) }

// Workers returns the pool's concurrency.
func (p *Pool) Workers() int { return p.workers }

// SetMetrics attaches a collector that receives every successful
// outcome's Result — fresh runs and cache hits alike, so the report
// describes the batch the caller asked for, not just the runs that
// missed the memo store. Call before submitting jobs; nil detaches.
func (p *Pool) SetMetrics(c *obs.Collector) { p.metrics = c }

// Metrics returns the attached collector (nil if none).
func (p *Pool) Metrics() *obs.Collector { return p.metrics }

// Run executes jobs and returns their results in submission order. If
// any job fails, Run returns the error of the earliest failed job (by
// submission order); the remaining jobs still execute. Cancellation of
// ctx fails the jobs that have not started.
func (p *Pool) Run(ctx context.Context, jobs []Job) ([]machine.Result, error) {
	outs := p.RunAll(ctx, jobs)
	results := make([]machine.Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("run %d/%d (%s on %q): %w",
				i+1, len(jobs), jobs[i].Workload(), jobs[i].config().Name, o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
}

// RunOne executes a single job synchronously — the submission shape of
// a serving front end, where requests arrive one at a time rather than
// as a pre-assembled batch. Concurrent RunOne calls share the pool's
// worker bound: at most `workers` of them simulate at once, the rest
// wait for a slot. Cancellation of ctx fails the job while it is
// waiting or before it starts; a simulation already executing runs to
// completion (the event loop has no preemption points), so a deadline
// bounds queue wait, not run time.
func (p *Pool) RunOne(ctx context.Context, j Job) Outcome {
	t0 := time.Now()
	defer func() { p.wall.Add(int64(time.Since(t0))) }()
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
		return p.runOne(ctx, j)
	case <-ctx.Done():
		p.jobs.Add(1)
		p.failed.Add(1)
		return Outcome{Err: ctx.Err()}
	}
}

// RunAll executes jobs and returns one Outcome per job, in submission
// order, with per-job errors left to the caller. Jobs that run the same
// program (FullName and thread count, the workload half of the memo key)
// form a group, dispatched in order of first appearance as one unit on
// one worker: its store misses run from a single emission.
func (p *Pool) RunAll(ctx context.Context, jobs []Job) []Outcome {
	t0 := time.Now()
	defer func() { p.wall.Add(int64(time.Since(t0))) }()

	out := make([]Outcome, len(jobs))
	groups := groupJobs(jobs)
	workers := min(p.workers, len(groups))
	if workers <= 1 {
		for _, g := range groups {
			p.runGroup(ctx, jobs, g, out)
		}
		return out
	}

	gs := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range gs {
				p.runGroup(ctx, jobs, g, out)
			}
		}()
	}
	// Each group is delivered exactly once: either to a worker, or —
	// once the context dies — its jobs are marked failed right here.
	for _, g := range groups {
		select {
		case gs <- g:
		case <-ctx.Done():
			for _, i := range g {
				p.jobs.Add(1)
				p.failed.Add(1)
				out[i] = Outcome{Err: ctx.Err()}
			}
		}
	}
	close(gs)
	wg.Wait()
	return out
}

// groupJobs partitions the job indexes by the program they emit, in
// order of first appearance. A replay emits nothing and groups alone.
func groupJobs(jobs []Job) [][]int {
	type program struct {
		name    string
		threads int
	}
	at := make(map[program]int)
	var groups [][]int
	for i, j := range jobs {
		if j.Replay == nil {
			id := program{j.Prog.FullName(), j.Prog.Threads}
			if g, ok := at[id]; ok {
				groups[g] = append(groups[g], i)
				continue
			}
			at[id] = len(groups)
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// runGroup runs one group: a store lookup per job, then every miss from
// one emission. A job whose key an earlier miss of the group will file
// is looked up once that run is over, so a batch that repeats a key
// simulates it once and counts a hit, as it would one job at a time.
func (p *Pool) runGroup(ctx context.Context, jobs []Job, g []int, out []Outcome) {
	if len(g) == 1 || jobs[g[0]].Replay != nil {
		out[g[0]] = p.runOne(ctx, jobs[g[0]])
		return
	}
	var miss, repeats []int
	var keys []string
	filed := make(map[string]bool)
	for _, i := range g {
		j := jobs[i]
		if p.store != nil {
			if j = j.Keyed(); filed[j.key] {
				repeats = append(repeats, i)
				continue
			}
		}
		key, o, done := p.admit(ctx, j)
		if done {
			out[i] = o
			continue
		}
		miss, keys = append(miss, i), append(keys, key)
		if key != "" {
			filed[key] = true
		}
	}
	if len(miss) > 0 {
		p.runShared(jobs, miss, keys, out)
	}
	for _, i := range repeats {
		out[i] = p.runOne(ctx, jobs[i])
	}
}

// runShared runs the misses of one group from one emission, each member
// recovering its own panic. Elapsed time counts once for the group.
func (p *Pool) runShared(jobs []Job, miss []int, keys []string, out []Outcome) {
	cfgs := make([]machine.Config, len(miss))
	for k, i := range miss {
		cfgs[k] = jobs[i].config()
	}
	t0 := time.Now()
	defer func() {
		p.cpu.Add(int64(time.Since(t0)))
		// Only the launch panics outside a member: Setup failed, and
		// with it every member.
		if r := recover(); r != nil {
			for _, i := range miss {
				p.failed.Add(1)
				out[i] = Outcome{Err: panicked(r)}
			}
		}
	}()
	p.emissions.Add(1)
	machine.RunShared(cfgs, jobs[miss[0]].Prog, func(k int, run func() (machine.Result, error)) {
		o := &out[miss[k]]
		defer p.recovered(o)
		res, err := run()
		*o = p.file(keys[k], res, err)
	})
}

// errSampledMemo refuses a sampled job on a pool with a store.
var errSampledMemo = errors.New("runner: a sampled run cannot be memoized: its schedule is in no fingerprint")

// runOne executes a single job: store lookup, machine run, store fill.
// A panicking run fails that job with the stack attached instead of
// crashing the process (a crashing sim configuration must not take the
// whole sweep down with it).
func (p *Pool) runOne(ctx context.Context, j Job) (o Outcome) {
	defer p.recovered(&o)
	key, o, done := p.admit(ctx, j)
	if done {
		return o
	}
	t0 := time.Now()
	var res machine.Result
	var err error
	if j.Replay != nil {
		res, err = machine.RunReplay(j.config(), j.Replay)
	} else {
		p.emissions.Add(1)
		res, err = machine.Run(j.config(), j.Prog)
	}
	p.cpu.Add(int64(time.Since(t0)))
	return p.file(key, res, err)
}

// recovered fails *o with the panic in flight, if any.
func (p *Pool) recovered(o *Outcome) {
	if r := recover(); r != nil {
		p.failed.Add(1)
		*o = Outcome{Err: panicked(r)}
	}
}

// panicked is the error of a job whose simulation panicked with r.
func panicked(r any) error {
	return fmt.Errorf("simulation panicked: %v\n%s", r, debug.Stack())
}

// admit counts a job in and does what precedes its run: cancellation,
// the sampled-job refusal and the store lookup. It returns the key a
// fresh result is filed under and, when the job needs no run, done with
// its outcome.
func (p *Pool) admit(ctx context.Context, j Job) (key string, o Outcome, done bool) {
	p.jobs.Add(1)
	if err := ctx.Err(); err != nil {
		p.failed.Add(1)
		return "", Outcome{Err: err}, true
	}
	cfg := j.config()
	if p.store == nil {
		return "", Outcome{}, false
	}
	// No fingerprint carries the sampling schedule, so a sampled
	// result would be filed under its full-detail run's key.
	if cfg.Sampling.Enabled {
		p.failed.Add(1)
		return "", Outcome{Err: errSampledMemo}, true
	}
	key = j.Fingerprint()
	if key == "" {
		return "", Outcome{}, false
	}
	res, ok := p.store.Get(key)
	if !ok {
		return key, Outcome{}, false
	}
	// The fingerprint is Name-blind, so a hit may come from a run under
	// a different label; re-stamp it with ours.
	res.Config = cfg.Name
	p.hits.Add(1)
	if p.metrics != nil {
		p.metrics.Record(res)
	}
	return key, Outcome{Result: res, Cached: true}, true
}

// file accounts for one finished run and files its result under key.
func (p *Pool) file(key string, res machine.Result, err error) Outcome {
	p.ran.Add(1)
	if err != nil {
		p.failed.Add(1)
		return Outcome{Err: err}
	}
	if key != "" {
		p.store.Put(key, res)
	}
	if p.metrics != nil {
		p.metrics.Record(res)
	}
	return Outcome{Result: res}
}
