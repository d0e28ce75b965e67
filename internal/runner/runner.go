// Package runner is the run-execution subsystem between the experiment
// logic (core, harness) and the machine model: a bounded worker pool
// that fans independent, seed-deterministic simulation runs out across
// cores, backed by a content-addressed store that memoizes results so
// no (config, workload, procs, seed) combination is ever simulated
// twice.
//
// Every experiment in the study is a batch of such runs — the ≥5-run
// jitter averages of core.Reference, the 7-config × 4-app sweeps of
// core.Study, the 1–16p speedup curves of core.TrendAnalyzer, and the
// Calibrator's repeated snbench probes. Because machine.Run is a pure
// function of (Config, Program), executing a batch concurrently and
// returning results in submission order is bit-identical to running it
// serially, whatever the worker count.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/obs"
)

// Job describes one simulation run: a machine configuration and the
// program to execute on it. Procs and Seed, when set, override the
// corresponding Config fields — they exist so a batch over one base
// configuration (a repeats average, a processor sweep) can be expressed
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
	// Procs overrides Config.Procs when positive.
	Procs int
	// Seed overrides Config.Seed when nonzero.
	Seed uint64

	// key is the job's Fingerprint once Keyed has computed it; nothing
	// else sets it, so a job is never filed under a key not its own.
	key string
}

// config returns the effective configuration with overrides applied.
func (j Job) config() machine.Config {
	cfg := j.Config
	if j.Procs > 0 {
		cfg.Procs = j.Procs
	}
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

	jobs   atomicCounter
	ran    atomicCounter
	hits   atomicCounter
	failed atomicCounter
	wall   atomicCounter // nanoseconds across Run/RunAll calls
	cpu    atomicCounter // summed per-job execution nanoseconds
}

// New returns a pool with the given concurrency. workers <= 0 selects
// DefaultWorkers; workers == 1 is strictly serial. store is any memo
// Backend — a *Store or a bare *DiskBackend — and may be nil to
// disable memoization.
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

// RunOne executes a single job through p, so the run memoizes and
// counts like any batch of one.
func RunOne(p *Pool, job Job) (machine.Result, error) {
	results, err := p.Run(context.Background(), []Job{job})
	if err != nil {
		return machine.Result{}, err
	}
	return results[0], nil
}

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
	defer func() { p.wall.add(int64(time.Since(t0))) }()
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
		return p.runOne(ctx, j)
	case <-ctx.Done():
		p.jobs.add(1)
		p.failed.add(1)
		return Outcome{Err: ctx.Err()}
	}
}

// RunAll executes jobs and returns one Outcome per job, in submission
// order, with per-job errors left to the caller.
func (p *Pool) RunAll(ctx context.Context, jobs []Job) []Outcome {
	t0 := time.Now()
	defer func() { p.wall.add(int64(time.Since(t0))) }()

	out := make([]Outcome, len(jobs))
	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			out[i] = p.runOne(ctx, jobs[i])
		}
		return out
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = p.runOne(ctx, jobs[i])
			}
		}()
	}
	// Each index is delivered exactly once: either to a worker, or —
	// once the context dies — marked failed right here.
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			p.jobs.add(1)
			p.failed.add(1)
			out[i] = Outcome{Err: ctx.Err()}
		}
	}
	close(idx)
	wg.Wait()
	return out
}

// runOne executes a single job: store lookup, machine run, store fill.
// A panicking run fails that job with the stack attached instead of
// crashing the process (a crashing sim configuration must not take the
// whole sweep down with it).
func (p *Pool) runOne(ctx context.Context, j Job) (o Outcome) {
	p.jobs.add(1)
	defer func() {
		if r := recover(); r != nil {
			p.failed.add(1)
			o = Outcome{Err: fmt.Errorf("simulation panicked: %v\n%s", r, debug.Stack())}
		}
	}()
	if err := ctx.Err(); err != nil {
		p.failed.add(1)
		return Outcome{Err: err}
	}
	cfg := j.config()
	key := ""
	if p.store != nil {
		key = j.Fingerprint()
	}
	if key != "" {
		if res, ok := p.store.Get(key); ok {
			// The fingerprint is Name-blind, so a hit may come from a
			// run under a different label; re-stamp it with ours.
			res.Config = cfg.Name
			p.hits.add(1)
			if p.metrics != nil {
				p.metrics.Record(res)
			}
			return Outcome{Result: res, Cached: true}
		}
	}
	t0 := time.Now()
	var res machine.Result
	var err error
	if j.Replay != nil {
		res, err = machine.RunReplay(cfg, j.Replay)
	} else {
		res, err = machine.Run(cfg, j.Prog)
	}
	p.cpu.add(int64(time.Since(t0)))
	p.ran.add(1)
	if err != nil {
		p.failed.add(1)
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
