package runner_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
)

// TestStoredPoolRefusesSampledJobs: the sampling schedule is in no
// fingerprint, so a memoizing pool would file a sampled replay under
// the full-detail replay's key. It refuses the job instead, before it
// runs; a pool without a store still runs it.
func TestStoredPoolRefusesSampledJobs(t *testing.T) {
	cfg := testCfg(2)
	prog := tinyProg(2, 2000)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, runner.TraceMeta(cfg, prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCapture(cfg, prog, tw); err != nil {
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
	sampled := cfg
	sampled.Sampling = machine.DefaultSampling()
	job := runner.Job{Config: sampled, Replay: img, Seed: 1}
	if key := job.Fingerprint(); key == "" || key != (runner.Job{Config: cfg, Replay: img, Seed: 1}).Fingerprint() {
		t.Fatalf("sampled replay key %q: want the full-detail replay's, non-empty; the refusal is no longer needed", key)
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
	if out := runner.Serial().RunOne(context.Background(), job); out.Err != nil || !out.Result.Sampled {
		t.Errorf("a storeless pool: sampled %v, err %v", out.Result.Sampled, out.Err)
	}
}

// TestSampledMemberFailsAlone: a RunAll group shares one emission, and
// an execution-driven run refuses a sampling schedule, so the group's
// sampled member fails while the others equal their solo runs.
func TestSampledMemberFailsAlone(t *testing.T) {
	prog := tinyProg(2, 3000)
	sampled := testCfg(2)
	sampled.Sampling = machine.DefaultSampling()
	jobs := []runner.Job{
		{Config: testCfg(2), Prog: prog, Seed: 1},
		{Config: sampled, Prog: prog, Seed: 2},
		{Config: testCfg(2), Prog: prog, Seed: 3},
	}
	pool := runner.New(1, nil)
	out := pool.RunAll(context.Background(), jobs)
	if st := pool.Stats(); st.Emissions != 1 {
		t.Fatalf("the group took %d emissions, want 1", st.Emissions)
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "sampling runs only on trace replay") {
		t.Errorf("sampled member: err %v, want the refusal", out[1].Err)
	}
	for _, k := range []int{0, 2} {
		solo := runner.Serial().RunOne(context.Background(), jobs[k])
		if solo.Err != nil || out[k].Err != nil {
			t.Fatalf("member %d: solo err %v, group err %v", k, solo.Err, out[k].Err)
		}
		if !reflect.DeepEqual(out[k].Result, solo.Result) {
			t.Errorf("member %d beside the refused member differs from its solo run", k)
		}
	}
}
