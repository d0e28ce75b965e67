package runner_test

import (
	"context"
	"strings"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
)

// TestStoredPoolRefusesSampledJobs: the sampling schedule is in no
// fingerprint, so a memoizing pool would file a sampled result under
// the full-detail run's key. It refuses the job instead, before it
// runs; a pool without a store still runs it.
func TestStoredPoolRefusesSampledJobs(t *testing.T) {
	cfg := testCfg(2)
	cfg.Sampling = machine.DefaultSampling()
	job := runner.Job{Config: cfg, Prog: tinyProg(2, 2000), Seed: 1}
	if job.Fingerprint() != (runner.Job{Config: testCfg(2), Prog: job.Prog, Seed: 1}).Fingerprint() {
		t.Fatal("the schedule reached the fingerprint; the refusal is no longer needed")
	}

	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(1, store)
	out := pool.RunOne(context.Background(), job)
	if out.Err == nil || !strings.Contains(out.Err.Error(), "sampled") {
		t.Fatalf("a stored pool ran a sampled job: err %v", out.Err)
	}
	if st := pool.Stats(); st.Ran != 0 || st.Failed != 1 {
		t.Errorf("the refusal counted as ran %d failed %d, want 0 and 1", st.Ran, st.Failed)
	}
	if res, err := runner.RunOne(runner.Serial(), job); err != nil || !res.Sampled {
		t.Errorf("a storeless pool: sampled %v, err %v", res.Sampled, err)
	}
}
