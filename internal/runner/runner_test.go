package runner_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/param"
	"flashsim/internal/runner"
)

// tinyProg is a minimal timed workload: a barrier-delimited burst of
// integer work, enough to exercise the full run loop in microseconds.
func tinyProg(threads, ops int) emitter.Program {
	return emitter.Program{
		Name:    "runner-test",
		Variant: fmt.Sprintf("ops=%d", ops),
		Threads: threads,
		Body: func(t *emitter.Thread, _ any) {
			t.Barrier(emitter.BarrierStart)
			t.IntOps(ops)
			t.Barrier(emitter.BarrierEnd)
		},
	}
}

func testCfg(procs int) machine.Config {
	cfg := machine.Base(procs, true)
	cfg.Name = "runner-test-machine"
	cfg.JitterPct = 0.5 // make the seed observable in the result
	return cfg
}

func seedBatch(n int) []runner.Job {
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = runner.Job{Config: testCfg(1), Prog: tinyProg(1, 500+i), Seed: uint64(i + 1)}
	}
	return jobs
}

func TestResultsAreInSubmissionOrderAndWorkerCountInvariant(t *testing.T) {
	jobs := seedBatch(10)
	serial, err := runner.New(1, nil).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.New(8, nil).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel results differ from serial results")
	}
	// Distinct seeds under jitter must give distinct times, proving the
	// order was preserved rather than all jobs being identical.
	distinct := map[string]bool{}
	for _, r := range serial {
		distinct[fmt.Sprint(r.Exec)] = true
	}
	if len(distinct) < 2 {
		t.Error("seeds produced indistinguishable results; order check is vacuous")
	}
}

// TestConcurrentRunsShareNoQueueState pins the concurrency contract
// documented on Pool: the event free list in internal/sim is per-queue,
// so machines running side by side on pool workers recycle events
// strictly within their own run. Identical jobs executed concurrently
// must be bit-identical to the same jobs run serially, and the race
// detector (CI runs this package under -race) catches any mutable
// queue state leaking between runs.
func TestConcurrentRunsShareNoQueueState(t *testing.T) {
	if runner.DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", runner.DefaultWorkers())
	}
	job := runner.Job{Config: testCfg(2), Prog: tinyProg(2, 2000), Seed: 7}
	jobs := []runner.Job{job, job, job, job}
	serial := runner.New(1, nil).RunAll(context.Background(), jobs)
	concurrent := runner.New(len(jobs), nil).RunAll(context.Background(), jobs)
	for i := range jobs {
		if serial[i].Err != nil {
			t.Fatalf("serial run %d: %v", i, serial[i].Err)
		}
		if concurrent[i].Err != nil {
			t.Fatalf("concurrent run %d: %v", i, concurrent[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Result, concurrent[i].Result) {
			t.Errorf("run %d: concurrent result differs from serial", i)
		}
	}
}

func TestPanicFailsTheJobNotTheProcess(t *testing.T) {
	bad := runner.Job{Config: testCfg(1), Prog: emitter.Program{
		Name:    "runner-test",
		Variant: "panics",
		Threads: 1,
		Setup:   func(*emitter.AddressSpace) any { panic("boom") },
		Body:    func(*emitter.Thread, any) {},
	}}
	jobs := []runner.Job{bad, {Config: testCfg(1), Prog: tinyProg(1, 100)}}
	outs := runner.New(4, nil).RunAll(context.Background(), jobs)
	if outs[0].Err == nil || !strings.Contains(outs[0].Err.Error(), "boom") {
		t.Errorf("panicking job error = %v, want the panic value and stack", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Errorf("healthy job failed alongside the panicking one: %v", outs[1].Err)
	}
	if _, err := runner.New(1, nil).Run(context.Background(), jobs); err == nil {
		t.Error("Run should surface the first failed job")
	}
}

// TestPanicInsideTheRunLeavesNothingBehind is the event-loop version of
// the test above: the workload is well-formed enough to launch, and the
// panic comes out of a core mid-run (an op code the latency table has
// no row for) with both emitter threads parked on full channels. The
// pool must name the panic in the job's error, the run must release
// its goroutines on the way out, and the same pool must serve the next
// job.
func TestPanicInsideTheRunLeavesNothingBehind(t *testing.T) {
	cfg := testCfg(2)
	cfg.ModelInstrLatency = true
	bad := runner.Job{Config: cfg, Prog: emitter.Program{
		Name:    "runner-test",
		Variant: "bad-op",
		Threads: 2,
		Body: func(t *emitter.Thread, _ any) {
			t.IntOps(100)
			t.Op(isa.NumOps+1, emitter.None, emitter.None)
			t.IntOps(1 << 20)
		},
	}}
	pool := runner.New(1, nil)
	before := runtime.NumGoroutine()
	out := pool.RunAll(context.Background(), []runner.Job{bad})[0]
	if out.Err == nil || !strings.Contains(out.Err.Error(), "index out of range") {
		t.Fatalf("job error = %v, want the core's panic value and stack", out.Err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the panicking run, %d after it", before, n)
	}
	if next := pool.RunAll(context.Background(), []runner.Job{{Config: testCfg(2), Prog: tinyProg(2, 100)}})[0]; next.Err != nil {
		t.Errorf("the job after the panicking one failed: %v", next.Err)
	}
}

func TestJobErrorIsPerJob(t *testing.T) {
	mismatched := runner.Job{Config: testCfg(2), Prog: tinyProg(1, 100)} // threads != procs
	outs := runner.New(2, nil).RunAll(context.Background(), []runner.Job{
		{Config: testCfg(1), Prog: tinyProg(1, 100)}, mismatched,
	})
	if outs[0].Err != nil {
		t.Errorf("good job failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil {
		t.Error("mismatched job should fail")
	}
}

func TestCancellationFailsUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs := runner.New(4, nil).RunAll(ctx, seedBatch(6))
	for i, o := range outs {
		if o.Err == nil {
			t.Errorf("job %d ran under a dead context", i)
		}
	}
}

// TestRunOneGivesUpItsWaitForASlot: a RunOne whose context dies while
// every worker is busy returns the context's error and never simulates,
// so a serving front end's cancelled job costs no run. The blocker
// holding the one worker is a run whose thread says when it has started
// and emits nothing until told: no sleep, and no race with the host.
func TestRunOneGivesUpItsWaitForASlot(t *testing.T) {
	pool := runner.New(1, nil)
	started, release := make(chan struct{}), make(chan struct{})
	blocker := tinyProg(1, 1)
	blocker.Body = func(th *emitter.Thread, _ any) {
		close(started)
		<-release
		th.IntOps(1)
	}
	blockerDone := make(chan runner.Outcome, 1)
	go func() {
		blockerDone <- pool.RunOne(context.Background(), runner.Job{Config: testCfg(1), Prog: blocker, Seed: 99})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan runner.Outcome, 1)
	go func() { waited <- pool.RunOne(ctx, runner.Job{Config: testCfg(1), Prog: tinyProg(1, 1000), Seed: 7}) }()
	cancel()
	if out := <-waited; !errors.Is(out.Err, context.Canceled) {
		t.Errorf("RunOne under a context that died in the wait: err %v, want %v", out.Err, context.Canceled)
	}
	if st := pool.Stats(); st.Ran != 0 || st.Failed != 1 {
		t.Errorf("while the blocker holds the worker: ran %d failed %d, want 0 and 1", st.Ran, st.Failed)
	}
	close(release)
	if out := <-blockerDone; out.Err != nil {
		t.Fatal(out.Err)
	}
	if st := pool.Stats(); st.Ran != 1 || st.Failed != 1 {
		t.Errorf("after the blocker: ran %d failed %d, want 1 (the blocker) and 1", st.Ran, st.Failed)
	}
}

func TestStoreMemoizesWithinAProcess(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(4, store)
	jobs := seedBatch(6)

	first, err := pool.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	cold := pool.Stats()
	if cold.Ran != int64(len(jobs)) || cold.CacheHits != 0 {
		t.Fatalf("cold stats: %+v", cold)
	}

	second, err := pool.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	warm := pool.Stats().Sub(cold)
	if warm.Ran != 0 {
		t.Errorf("warm batch performed %d new runs, want 0", warm.Ran)
	}
	if warm.CacheHits != int64(len(jobs)) || warm.Jobs != int64(len(jobs)) {
		t.Errorf("warm batch hits = %d of %d jobs, want %d of %d",
			warm.CacheHits, warm.Jobs, len(jobs), len(jobs))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memoized results differ from computed results")
	}
}

func TestStorePersistsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	jobs := seedBatch(4)

	store1, err := runner.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool1 := runner.New(2, store1)
	first, err := pool1.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := store1.Err(); err != nil {
		t.Fatalf("disk writes failed: %v", err)
	}

	// A fresh store over the same directory simulates a new process.
	store2, err := runner.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := runner.New(2, store2)
	second, err := pool2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := pool2.Stats(); st.Ran != 0 || st.CacheHits != int64(len(jobs)) {
		t.Errorf("persistent cache not hit: %+v", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("disk round trip changed the results")
	}
}

func TestFingerprintSeparatesRuns(t *testing.T) {
	base := runner.Job{Config: testCfg(1), Prog: tinyProg(1, 100), Seed: 1}
	same := base
	if base.Fingerprint() != same.Fingerprint() {
		t.Error("identical jobs should share a fingerprint")
	}
	keys := map[string]string{"base": base.Fingerprint()}
	variants := map[string]runner.Job{
		"seed":     {Config: base.Config, Prog: base.Prog, Seed: 2},
		"workload": {Config: base.Config, Prog: tinyProg(1, 101), Seed: 1},
	}
	cfg2 := testCfg(1)
	cfg2.ClockMHz = 300
	variants["config"] = runner.Job{Config: cfg2, Prog: base.Prog, Seed: 1}
	for name, j := range variants {
		k := j.Fingerprint()
		for prev, pk := range keys {
			if k == pk {
				t.Errorf("%s variant collides with %s", name, prev)
			}
		}
		keys[name] = k
	}
}

func TestStatsString(t *testing.T) {
	pool := runner.New(1, nil)
	if _, err := pool.Run(context.Background(), seedBatch(2)); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Jobs != 2 || s.Ran != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "2 jobs") {
		t.Errorf("String() = %q", str)
	}
	if s.CPU <= 0 {
		t.Error("run time should be positive")
	}
}

func TestFingerprintIsCanonical(t *testing.T) {
	base := runner.Job{Config: testCfg(2), Prog: tinyProg(1, 100), Seed: 1}

	// Display labels are not semantics: renamed configs share a key.
	renamed := base
	renamed.Config.Name = "Tuned FlashLite"
	if base.Fingerprint() != renamed.Fingerprint() {
		t.Error("Name-only change must not change the fingerprint")
	}

	// nil and explicitly materialized default pointer fields are the
	// same simulator.
	materialized := base
	nd := memsys.DefaultNUMAConfig(materialized.Config.Procs)
	materialized.Config.NUMA = &nd
	mt := magic.RTLOccupancies()
	materialized.Config.MagicTable = &mt
	if base.Fingerprint() != materialized.Fingerprint() {
		t.Error("nil-vs-default pointer fields must not change the fingerprint")
	}

	// A semantic change through either form does.
	changed := materialized
	nd2 := nd
	nd2.HopNS += 5
	changed.Config.NUMA = &nd2
	if base.Fingerprint() == changed.Fingerprint() {
		t.Error("NUMA parameter change must change the fingerprint")
	}

	// The schema version is part of the key (stale caches from older
	// layouts must miss).
	if !strings.Contains(string(param.AppendCanonical(nil, &base.Config)), fmt.Sprintf(`"schema":%d`, param.SchemaVersion)) {
		t.Error("canonical payload must carry the schema version")
	}
}

func TestCacheHitRestampsConfigLabel(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	job := runner.Job{Config: testCfg(1), Prog: tinyProg(1, 200), Seed: 1}
	pool := runner.New(1, store)
	if _, err := pool.Run(context.Background(), []runner.Job{job}); err != nil {
		t.Fatal(err)
	}
	renamed := job
	renamed.Config.Name = "same machine, new label"
	res, err := pool.Run(context.Background(), []runner.Job{renamed})
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.CacheHits != 1 {
		t.Fatalf("rename should hit the cache: %+v", st)
	}
	if res[0].Config != renamed.Config.Name {
		t.Errorf("cached result label = %q, want %q", res[0].Config, renamed.Config.Name)
	}
}
