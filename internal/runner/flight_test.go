package runner_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
)

// TestFlightCoalescesIdenticalSubmissions pins the serving dedup
// contract: N concurrent submissions of one identical job execute
// machine.Run exactly once, and every caller gets the same result.
func TestFlightCoalescesIdenticalSubmissions(t *testing.T) {
	// A serial pool busy with a blocker keeps the coalesced job queued
	// on the pool semaphore, holding its in-flight key open until every
	// caller has verifiably joined. The blocker is a run whose one thread
	// says when it has started — it has the worker then — and emits
	// nothing until told: no sleep, and no race with the host's speed.
	pool := runner.New(1, nil) // no store: coalescing alone must dedup
	started, release := make(chan struct{}), make(chan struct{})
	blocker := tinyProg(1, 1)
	blocker.Body = func(th *emitter.Thread, _ any) {
		close(started)
		<-release
		th.IntOps(1)
	}
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.RunOne(context.Background(), runner.Job{Config: testCfg(1), Prog: blocker, Seed: 99})
	}()
	<-started

	f := runner.NewFlight(pool, nil)
	job := runner.Job{Config: testCfg(1), Prog: tinyProg(1, 20000), Seed: 7}

	const callers = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		outs      []runner.Outcome
		coalesced int
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, joined := f.Run(context.Background(), job)
			mu.Lock()
			outs = append(outs, out)
			if joined {
				coalesced++
			}
			mu.Unlock()
		}()
	}
	// Every caller must register against the one in-flight key before
	// the blocker can possibly release it.
	for deadline := time.Now().Add(10 * time.Second); f.Coalesced() != callers-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers joined the flight", f.Coalesced())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-blockerDone:
		t.Fatal("blocker finished before it was released")
	default:
	}
	close(release)
	wg.Wait()
	<-blockerDone

	// All callers joined one in-flight key, so the pool must have seen
	// exactly one execution besides the blocker. The Ran counter is the
	// ground truth for how many machine.Run calls happened.
	if ran := pool.Stats().Ran; ran != 2 {
		t.Fatalf("pool ran %d executions (1 blocker + coalesced flight), want 2", ran)
	}
	if coalesced != callers-1 {
		t.Errorf("%d callers coalesced, want %d", coalesced, callers-1)
	}
	if f.Coalesced() != int64(callers-1) {
		t.Errorf("Coalesced() = %d, want %d", f.Coalesced(), callers-1)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("caller %d: %v", i, o.Err)
		}
		if o.Result.Exec != outs[0].Result.Exec {
			t.Errorf("caller %d saw a different result", i)
		}
	}
}

// TestFlightDistinctJobsDoNotCoalesce: different seeds are different
// fingerprints and must each run.
func TestFlightDistinctJobsDoNotCoalesce(t *testing.T) {
	pool := runner.New(4, nil)
	f := runner.NewFlight(pool, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			out, _ := f.Run(context.Background(), runner.Job{Config: testCfg(1), Prog: tinyProg(1, 1000), Seed: seed})
			if out.Err != nil {
				t.Errorf("seed %d: %v", seed, out.Err)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if ran := pool.Stats().Ran; ran != 4 {
		t.Errorf("pool ran %d, want 4 distinct runs", ran)
	}
}

// TestFlightWaiterCancellationLeavesRunAlive: a waiter abandoning under
// its own context gets that context's error, while the remaining waiter
// still receives the completed result.
func TestFlightWaiterCancellationLeavesRunAlive(t *testing.T) {
	pool := runner.New(2, nil)
	f := runner.NewFlight(pool, nil)
	job := runner.Job{Config: testCfg(1), Prog: tinyProg(1, 200000), Seed: 3}

	done := make(chan runner.Outcome, 1)
	go func() {
		out, _ := f.Run(context.Background(), job)
		done <- out
	}()
	// Give the leader a moment to register the in-flight key, then join
	// with an already-cancelled context.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _ := f.Run(ctx, job)
	if out.Err == nil {
		t.Error("cancelled waiter got no error")
	}
	select {
	case leader := <-done:
		if leader.Err != nil {
			t.Fatalf("leader run failed after waiter abandoned: %v", leader.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leader never completed")
	}
}

// TestFlightAllWaitersGoneCancelsRun: when every caller abandons before
// the run starts, the queued execution is cancelled instead of running
// to completion on nobody's behalf.
func TestFlightAllWaitersGoneCancelsRun(t *testing.T) {
	// A serial pool busy with a long job forces the flight's execution
	// to sit queued behind it, so cancellation lands before its start.
	pool := runner.New(1, nil)
	blocker := make(chan struct{})
	go func() {
		defer close(blocker)
		pool.RunOne(context.Background(), runner.Job{Config: testCfg(1), Prog: tinyProg(1, 2_000_000), Seed: 9})
	}()
	time.Sleep(10 * time.Millisecond) // let the blocker take the worker

	// The only waiter joins with an already-dead context: it abandons
	// immediately, and the last-out refcount must cancel the queued run.
	f := runner.NewFlight(pool, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _ := f.Run(ctx, runner.Job{Config: testCfg(1), Prog: tinyProg(1, 1000), Seed: 10})
	if out.Err == nil {
		t.Error("abandoned run returned a result")
	}
	<-blocker

	// The queued execution must have died on its cancelled context, not
	// simulated for nobody: one real run (the blocker), one failure.
	for deadline := time.Now().Add(10 * time.Second); pool.Stats().Jobs != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("flight execution never settled: %+v", pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := pool.Stats(); st.Ran != 1 || st.Failed != 1 {
		t.Errorf("stats after abandon: ran %d failed %d, want 1 ran (blocker) and 1 failed (cancelled flight)", st.Ran, st.Failed)
	}
}

// TestFlightNeverCoalescesUnkeyedJobs: a replay of an image with no
// artifact address has no key ("always executes"), so two of them in
// flight at once have nothing in common to coalesce on — filed under
// the empty key they would share one execution and one result, whatever
// their configurations.
func TestFlightNeverCoalescesUnkeyedJobs(t *testing.T) {
	prog := tinyProg(1, 20000)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Workload: prog.FullName(), Threads: prog.Threads})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCapture(testCfg(1), prog, tw); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}

	// Two configurations that replay the image to different times.
	jobs := []runner.Job{{Config: testCfg(1), Replay: img}, {Config: testCfg(1), Replay: img}}
	jobs[1].Config.ClockMHz = 300
	var want [2]machine.Result
	for i, j := range jobs {
		if j.Fingerprint() != "" {
			t.Fatal("replay of an unaddressed image has a key")
		}
		if want[i], err = machine.RunReplay(j.Config, img); err != nil {
			t.Fatal(err)
		}
	}
	if want[0].Exec == want[1].Exec {
		t.Fatal("the two configurations replay to the same time; the check is vacuous")
	}

	// A serial pool busy with a long blocker holds both submissions in
	// flight together.
	pool := runner.New(1, nil)
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.RunOne(context.Background(), runner.Job{Config: testCfg(1), Prog: tinyProg(1, 2_000_000), Seed: 99})
	}()
	time.Sleep(10 * time.Millisecond) // let the blocker take the worker

	f := runner.NewFlight(pool, nil)
	var (
		wg     sync.WaitGroup
		outs   [2]runner.Outcome
		joined [2]bool
	)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], joined[i] = f.Run(context.Background(), jobs[i])
		}()
	}
	wg.Wait()
	<-blockerDone

	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("replay %d: %v", i, out.Err)
		}
		if joined[i] || out.Result.Exec != want[i].Exec {
			t.Errorf("replay %d: coalesced %v, exec %v, want its own run's %v", i, joined[i], out.Result.Exec, want[i].Exec)
		}
	}
	if ran := pool.Stats().Ran; ran != 3 {
		t.Errorf("pool ran %d executions, want 3 (the blocker and both replays)", ran)
	}
}
