package runner_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/harness"
	"flashsim/internal/hw"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
)

// figureBatch is one program's share of a figure: the seven standard
// simulators and two seeded repeats of the hardware reference.
func figureBatch(prog emitter.Program) []runner.Job {
	var jobs []runner.Job
	for _, cfg := range core.StandardConfigs(prog.Threads, true) {
		jobs = append(jobs, runner.Job{Config: cfg, Prog: prog})
	}
	for seed := uint64(1); seed <= 2; seed++ {
		jobs = append(jobs, runner.Job{Config: hw.Config(prog.Threads, true), Prog: prog, Seed: seed})
	}
	return jobs
}

// solo runs j alone, through machine.Run.
func solo(t *testing.T, j runner.Job) machine.Result {
	t.Helper()
	cfg := j.Config
	if j.Seed != 0 {
		cfg.Seed = j.Seed
	}
	res, err := machine.Run(cfg, j.Prog)
	if err != nil {
		t.Fatalf("%s on %s alone: %v", j.Prog.FullName(), cfg.Name, err)
	}
	return res
}

// runWithin runs jobs on pool and fails the test, rather than hanging
// it, when the batch does not come back in time.
func runWithin(t *testing.T, pool *runner.Pool, jobs []runner.Job) []runner.Outcome {
	t.Helper()
	done := make(chan []runner.Outcome, 1)
	go func() { done <- pool.RunAll(context.Background(), jobs) }()
	select {
	case outs := <-done:
		return outs
	case <-time.After(2 * time.Minute):
		t.Fatal("the batch did not finish: a member holds the shared emission up")
		return nil
	}
}

// emitterThreads counts the goroutines running an emitter thread, once
// those an Abort has waited for are gone.
func emitterThreads() int {
	n := 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		if n = strings.Count(string(buf[:runtime.Stack(buf, true)]), "emitter.Start.func"); n == 0 {
			break
		}
	}
	return n
}

// TestSharedEmissionMatchesSoloRuns: a batch that runs every Figure 1
// program (and FFT at 4p) on the seven simulators and twice on the
// hardware emits each program once, and every run it returns is field
// for field the one machine.Run makes alone, Metrics and the emitter's
// Stats included, on a stored pool of one worker and of two.
func TestSharedEmissionMatchesSoloRuns(t *testing.T) {
	apps := harness.ScaleQuick.InitialApps()
	var progs []emitter.Program
	for _, w := range apps {
		progs = append(progs, w.Make(1))
	}
	progs = append(progs, apps[0].Make(4))
	for _, prog := range progs {
		jobs := figureBatch(prog)
		want := make([]machine.Result, len(jobs))
		for i, j := range jobs {
			want[i] = solo(t, j)
		}
		for _, workers := range []int{1, 2} {
			store, err := runner.NewStore("")
			if err != nil {
				t.Fatal(err)
			}
			pool := runner.New(workers, store)
			for i, o := range runWithin(t, pool, jobs) {
				if o.Err != nil || o.Cached {
					t.Fatalf("%s on %s, %d workers: cached %v, err %v", prog.FullName(), jobs[i].Config.Name, workers, o.Cached, o.Err)
				}
				if !reflect.DeepEqual(o.Result, want[i]) {
					t.Errorf("%s on %s, %d workers: the shared run differs from the solo run:\n%+v\n%+v",
						prog.FullName(), jobs[i].Config.Name, workers, o.Result, want[i])
				}
			}
			if st := pool.Stats(); st.Emissions != 1 || st.Ran != int64(len(jobs)) {
				t.Errorf("%s, %d workers: %d runs from %d emissions, want %d from 1", prog.FullName(), workers, st.Ran, st.Emissions, len(jobs))
			}
		}
	}
}

// lockRace is a two-thread program whose fate depends on the machine.
// Thread 0 computes, takes simulated lock 0 and holds it across barrier
// 20; thread 1 touches ten pages, then takes and drops the lock before
// the barrier. Where thread 1 is first to the lock (no page-fault cost:
// Solo) the run completes; where thread 0 is (SimOS faults each page)
// thread 1 queues on a lock whose holder waits for it at the barrier,
// and the machine deadlocks. An op no latency table has a row for then
// panics a core that models latencies, and each thread ends with more
// batches than a thread keeps slabs, so a member that stopped reading
// without giving its readers back would stall the others.
func lockRace() emitter.Program {
	return emitter.Program{
		Name:    "runner-test",
		Variant: "lock-race",
		Threads: 2,
		Setup: func(as *emitter.AddressSpace) any {
			return as.AllocPageAligned("pages", 1<<20, emitter.Placement{})
		},
		Body: func(t *emitter.Thread, shared any) {
			pages := shared.(emitter.Region)
			t.Barrier(emitter.BarrierStart)
			if t.ID == 0 {
				t.IntOps(8000)
				t.Op(isa.Lock, emitter.None, emitter.None)
				t.Barrier(20)
				t.Op(isa.Unlock, emitter.None, emitter.None)
			} else {
				v := emitter.None
				for i := 0; i < 10; i++ {
					v = t.Load(pages.Base+uint64(i)*4096, 8, v, emitter.None)
				}
				t.Op(isa.Lock, emitter.None, emitter.None)
				t.Op(isa.Unlock, emitter.None, emitter.None)
				t.Barrier(20)
			}
			t.Op(isa.NumOps+1, emitter.None, emitter.None)
			t.IntOps(3 * emitter.BatchSize * 8)
			t.Barrier(emitter.BarrierEnd)
		},
	}
}

// TestSharedEmissionIsolatesFailures: one group, five members, three of
// which fail three ways — a configuration Validate refuses, a core that
// panics mid-run and a machine that deadlocks. Each failing job gets its
// own error, the two healthy members match their solo runs bit for bit,
// the batch comes back (a failed member detaches its readers; without
// that the producers wait on it forever) and no emitter thread is left.
// A workload panic still fails every member with the stream's error.
func TestSharedEmissionIsolatesFailures(t *testing.T) {
	prog := lockRace()
	invalid := core.SoloMipsy(2, 300, true)
	invalid.Name, invalid.ClockMHz = "invalid", 7
	panics := core.SoloMipsy(2, 300, true)
	panics.Name, panics.ModelInstrLatency = "panics", true
	jobs := []runner.Job{
		{Config: core.SoloMipsy(2, 150, true), Prog: prog},
		{Config: invalid, Prog: prog},
		{Config: core.SoloMipsy(2, 300, true), Prog: prog},
		{Config: panics, Prog: prog},
		{Config: core.SimOSMipsy(2, 150, true), Prog: prog},
	}
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(1, store)
	outs := runWithin(t, pool, jobs)
	for i, want := range map[int]string{1: "does not divide 900", 3: "simulation panicked", 4: "deadlock"} {
		if outs[i].Err == nil || !strings.Contains(outs[i].Err.Error(), want) {
			t.Errorf("%s: err %v, want one that says %q", jobs[i].Config.Name, outs[i].Err, want)
		}
	}
	if !errors.Is(outs[4].Err, machine.ErrDeadlock) {
		t.Errorf("%s: err %v does not wrap machine.ErrDeadlock", jobs[4].Config.Name, outs[4].Err)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil {
			t.Fatalf("%s failed beside the failing members: %v", jobs[i].Config.Name, outs[i].Err)
		}
		if want := solo(t, jobs[i]); !reflect.DeepEqual(outs[i].Result, want) {
			t.Errorf("%s: the shared run differs from the solo run:\n%+v\n%+v", jobs[i].Config.Name, outs[i].Result, want)
		}
	}
	if st := pool.Stats(); st.Emissions != 1 || st.Ran != 4 || st.Failed != 3 {
		t.Errorf("%d emissions, %d run, %d failed; want 1, 4 (a panicked run is not counted) and 3", st.Emissions, st.Ran, st.Failed)
	}
	if n := emitterThreads(); n != 0 {
		t.Errorf("%d emitter threads left behind", n)
	}

	t.Run("workload panic", func(t *testing.T) {
		dies := tinyProg(2, 100)
		dies.Variant = "dies"
		dies.Body = func(th *emitter.Thread, _ any) {
			th.Barrier(emitter.BarrierStart)
			if th.ID == 1 {
				th.IntOps(3 * emitter.BatchSize)
				panic("workload exploded")
			}
			th.IntOps(100)
			th.Barrier(emitter.BarrierEnd)
		}
		var batch []runner.Job
		for _, cfg := range core.StandardConfigs(2, true)[:3] {
			batch = append(batch, runner.Job{Config: cfg, Prog: dies})
		}
		for i, o := range runWithin(t, runner.New(1, nil), batch) {
			if o.Err == nil || !strings.Contains(o.Err.Error(), "workload exploded") {
				t.Errorf("%s: err %v, want the stream's", batch[i].Config.Name, o.Err)
			}
		}
		if n := emitterThreads(); n != 0 {
			t.Errorf("%d emitter threads left behind", n)
		}
	})
}

// TestGroupAccounting: a batch that repeats a key runs it once and
// counts the repeat a hit, from the one emission the group shares; a
// group whose context is cancelled before it starts fails every job.
func TestGroupAccounting(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(1, store)
	prog := tinyProg(1, 300)
	jobs := []runner.Job{{Config: testCfg(1), Prog: prog, Seed: 1}, {Config: testCfg(1), Prog: prog, Seed: 2}, {Config: testCfg(1), Prog: prog, Seed: 1}}
	outs := pool.RunAll(context.Background(), jobs)
	if !outs[2].Cached || outs[0].Cached || outs[1].Cached {
		t.Errorf("cached: %v %v %v, want only the repeat", outs[0].Cached, outs[1].Cached, outs[2].Cached)
	}
	if !reflect.DeepEqual(outs[2].Result, outs[0].Result) {
		t.Error("the repeat's hit differs from the run it repeats")
	}
	if st := pool.Stats(); st.Jobs != 3 || st.Ran != 2 || st.CacheHits != 1 || st.Emissions != 1 {
		t.Errorf("stats %+v, want 3 jobs, 2 run from 1 emission, 1 hit", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		pool := runner.New(workers, store)
		for i, o := range pool.RunAll(ctx, append(seedBatch(2), jobs...)) {
			if o.Err == nil {
				t.Errorf("%d workers: job %d ran under a dead context", workers, i)
			}
		}
		if st := pool.Stats(); st.Jobs != 5 || st.Failed != 5 || st.Ran != 0 || st.Emissions != 0 {
			t.Errorf("%d workers: stats %+v, want 5 jobs failed and nothing run", workers, st)
		}
	}
}

// TestSetupPanicFailsItsJobs: a program whose Setup panics never starts
// an emission, so the launch panics outside any member. In one batch, a
// group of three jobs on such a program, a job alone on it (two threads,
// so a program of its own) and a healthy group: each Setup job fails
// with "simulation panicked", the healthy members equal their solo
// runs, and no emitter thread is left.
func TestSetupPanicFailsItsJobs(t *testing.T) {
	broken := func(threads int) emitter.Program {
		prog := tinyProg(threads, 100)
		prog.Variant = "setup-panics"
		prog.Setup = func(*emitter.AddressSpace) any { panic("no address space") }
		return prog
	}
	var jobs []runner.Job
	for _, cfg := range core.StandardConfigs(1, true)[:3] {
		jobs = append(jobs, runner.Job{Config: cfg, Prog: broken(1)})
	}
	jobs = append(jobs, runner.Job{Config: core.SimOSMipsy(2, 150, true), Prog: broken(2)})
	for _, cfg := range core.StandardConfigs(1, true)[3:5] {
		jobs = append(jobs, runner.Job{Config: cfg, Prog: tinyProg(1, 300)})
	}
	pool := runner.New(1, nil)
	outs := runWithin(t, pool, jobs)
	for i, o := range outs[:4] {
		if o.Err == nil || !strings.Contains(o.Err.Error(), "simulation panicked: no address space") {
			t.Errorf("job %d (%s on %s): err %v, want the Setup panic", i, jobs[i].Prog.FullName(), jobs[i].Config.Name, o.Err)
		}
	}
	for i, o := range outs[4:] {
		j := jobs[4+i]
		if o.Err != nil {
			t.Fatalf("%s failed beside the Setup panics: %v", j.Config.Name, o.Err)
		}
		if want := solo(t, j); !reflect.DeepEqual(o.Result, want) {
			t.Errorf("%s: the shared run differs from the solo run:\n%+v\n%+v", j.Config.Name, o.Result, want)
		}
	}
	if st := pool.Stats(); st.Jobs != 6 || st.Failed != 4 || st.Ran != 2 {
		t.Errorf("stats %+v, want 6 jobs, 4 failed and 2 run", st)
	}
	if n := emitterThreads(); n != 0 {
		t.Errorf("%d emitter threads left behind", n)
	}
}
