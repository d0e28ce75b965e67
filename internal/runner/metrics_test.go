package runner_test

import (
	"context"
	"reflect"
	"testing"

	"flashsim/internal/obs"
	"flashsim/internal/runner"
)

// TestPoolRecordsMetricsForFreshRuns pins the pool→collector hookup:
// every successful run's metrics land in the attached collector.
func TestPoolRecordsMetricsForFreshRuns(t *testing.T) {
	col := obs.NewCollector()
	p := runner.New(2, nil)
	p.SetMetrics(col)
	jobs := seedBatch(6)
	if _, err := p.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	rep := col.Snapshot()
	if rep.Total.Runs != 6 {
		t.Fatalf("collector saw %d runs, want 6", rep.Total.Runs)
	}
	if rep.Total.Instructions == 0 || rep.Total.Queue.Fired == 0 || rep.Total.Emitter.Batches == 0 {
		t.Fatalf("collected metrics are empty: %+v", rep.Total)
	}
	// seedBatch varies the workload, so the report splits per
	// (config, workload) pair: one row per job, all under one config.
	if len(rep.PerConfig) != 6 {
		t.Fatalf("per-config rows = %d, want 6", len(rep.PerConfig))
	}
	for _, row := range rep.PerConfig {
		if row.Config != "runner-test-machine" || row.Runs != 1 {
			t.Fatalf("per-config row wrong: %+v", row)
		}
	}
}

// TestCacheHitReplaysStoredMetrics pins the "metrics ride alongside
// memoized results" contract: a cache hit must deliver the same metrics
// to the collector that the original run recorded, re-stamped with the
// requesting config's label.
func TestCacheHitReplaysStoredMetrics(t *testing.T) {
	store, err := runner.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := runner.Job{Config: testCfg(1), Prog: tinyProg(1, 700), Seed: 3}

	colA := obs.NewCollector()
	pa := runner.New(1, store)
	pa.SetMetrics(colA)
	if _, err := pa.Run(context.Background(), []runner.Job{job}); err != nil {
		t.Fatal(err)
	}

	// Second pool, same store: the job must hit, not run.
	colB := obs.NewCollector()
	pb := runner.New(1, store)
	pb.SetMetrics(colB)
	relabeled := job
	relabeled.Config.Name = "relabeled"
	out := pb.RunAll(context.Background(), []runner.Job{relabeled})
	if out[0].Err != nil || !out[0].Cached {
		t.Fatalf("expected cache hit, got %+v", out[0])
	}
	a, b := colA.Snapshot(), colB.Snapshot()
	if b.Total.Runs != 1 {
		t.Fatalf("hit not recorded: %+v", b.Total)
	}
	// The label lives once, in Result.Config; the collector's total and
	// its per-config row read it from there.
	if out[0].Result.Config != "relabeled" || b.Total.Config != "relabeled" ||
		len(b.PerConfig) != 1 || b.PerConfig[0].Config != "relabeled" {
		t.Fatalf("hit not re-stamped: result=%q collected=%q rows=%+v",
			out[0].Result.Config, b.Total.Config, b.PerConfig)
	}
	// Apart from the label, the replayed metrics are bit-identical.
	am, bm := a.Total, b.Total
	am.Config, bm.Config = "", ""
	if !reflect.DeepEqual(am, bm) {
		t.Fatalf("cached metrics differ from fresh ones:\n%+v\n%+v", am, bm)
	}
}

// TestFailedRunsRecordNoMetrics: a panicking or failing job must not
// pollute the collector.
func TestFailedRunsRecordNoMetrics(t *testing.T) {
	col := obs.NewCollector()
	p := runner.New(1, nil)
	p.SetMetrics(col)
	bad := runner.Job{Config: testCfg(1), Prog: tinyProg(2, 100)} // thread mismatch
	out := p.RunAll(context.Background(), []runner.Job{bad})
	if out[0].Err == nil {
		t.Fatal("expected the mismatched job to fail")
	}
	if got := col.Runs(); got != 0 {
		t.Fatalf("failed job recorded %d runs", got)
	}
}
