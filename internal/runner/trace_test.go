package runner

import (
	"testing"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/trace"
)

func fpProg(threads int) emitter.Program {
	return emitter.Program{
		Name:    "fp-test",
		Threads: threads,
		Body: func(t *emitter.Thread, _ any) {
			t.IntOps(10)
		},
	}
}

// TestTraceFingerprintSchemaVersioned extends the fingerprint
// schema-versioning guarantees to the trace artifact kind (TraceMeta's
// Artifact): the trace key space is disjoint from run-result keys, the
// replay key space is disjoint from both, and a container FormatVersion
// bump changes every trace key — a new schema must never alias cache
// entries written by an old one.
func TestTraceFingerprintSchemaVersioned(t *testing.T) {
	cfg := machine.Base(2, true)
	cfg.Name = "fp-machine"
	prog := fpProg(2)
	artifact := func(cfg machine.Config) string { return TraceMeta(cfg, prog, nil).Artifact }

	run := Fingerprint(cfg, prog)
	tr := artifact(cfg)
	rp := ReplayFingerprint(cfg, tr)
	if run == tr || run == rp || tr == rp {
		t.Fatalf("artifact kinds must occupy disjoint key spaces: run=%s trace=%s replay=%s", run, tr, rp)
	}

	// The trace key is pinned to the container format version.
	if workloadKey(traceHead(trace.FormatVersion), &cfg, prog) != tr {
		t.Fatal("the artifact key must hash the current FormatVersion")
	}
	if bumped := workloadKey(traceHead(trace.FormatVersion+1), &cfg, prog); bumped == tr {
		t.Fatal("a FormatVersion bump must change every trace fingerprint")
	}

	// Replay keys chain from the artifact: a different trace (e.g. one
	// written under a bumped schema) yields a different replay key
	// under the same machine configuration.
	other := workloadKey(traceHead(trace.FormatVersion+1), &cfg, prog)
	if ReplayFingerprint(cfg, other) == rp {
		t.Fatal("replay fingerprints must chain the trace artifact identity")
	}

	// Like run fingerprints, trace keys see semantics, not labels.
	renamed := cfg
	renamed.Name = "other-label"
	if artifact(renamed) != tr {
		t.Error("Name-only change must not change the trace fingerprint")
	}
	changed := cfg
	changed.ClockMHz = 300
	if artifact(changed) == tr {
		t.Error("config change must change the trace fingerprint")
	}
}

func TestTraceMetaPopulated(t *testing.T) {
	cfg := machine.Base(2, true)
	prog := fpProg(2)
	meta := TraceMeta(cfg, prog, []byte(`{"app":"x"}`))
	if meta.Workload != prog.FullName() || meta.Threads != 2 {
		t.Fatalf("identity wrong: %+v", meta)
	}
	if meta.Fingerprint != Fingerprint(cfg, prog) || meta.Artifact != workloadKey(traceHead(trace.FormatVersion), &cfg, prog) {
		t.Fatalf("provenance wrong: %+v", meta)
	}
	if len(meta.Config) == 0 || string(meta.Source) != `{"app":"x"}` {
		t.Fatalf("snapshots missing: %+v", meta)
	}
}

// TestReplayJobsMemoizeUnderReplayKey runs one captured trace through
// a pooled replay twice: the second run must be a cache hit, under a
// key distinct from the execution-driven run's (both kinds coexist in
// one store), and an artifact-less image must not be memoized at all.
func TestReplayJobsMemoizeUnderReplayKey(t *testing.T) {
	cfg := machine.Base(2, true)
	cfg.Name = "replay-memo"
	prog := emitter.Program{
		Name:    "memo-prog",
		Threads: 2,
		Body: func(th *emitter.Thread, _ any) {
			th.Barrier(emitter.BarrierStart)
			th.IntOps(500)
			th.Store(0x1000+uint64(th.ID)*8, 8, emitter.None, emitter.None)
			th.Barrier(emitter.BarrierEnd)
		},
	}
	var buf writerBuffer
	tw, err := trace.NewWriter(&buf, TraceMeta(cfg, prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCapture(cfg, prog, tw); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(buf.data)
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}

	execJob := Job{Config: cfg, Prog: prog}
	replayJob := Job{Config: cfg, Replay: img}
	if replayJob.Fingerprint() == execJob.Fingerprint() || replayJob.Fingerprint() == "" {
		t.Fatalf("replay key must be distinct and non-empty: %q", replayJob.Fingerprint())
	}

	store, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := New(1, store)
	ctx := t.Context()
	first := pool.RunOne(ctx, replayJob)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Cached {
		t.Fatal("first replay should miss")
	}
	second := pool.RunOne(ctx, replayJob)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.Cached {
		t.Fatal("second replay should hit the memo store")
	}

	// An image with no artifact address never memoizes.
	anonMeta := trace.Meta{Workload: prog.FullName(), Threads: prog.Threads}
	var buf2 writerBuffer
	tw2, err := trace.NewWriter(&buf2, anonMeta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machine.RunCapture(cfg, prog, tw2); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.Decode(buf2.data)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := machine.PrepareReplay(tr2)
	if err != nil {
		t.Fatal(err)
	}
	anon := Job{Config: cfg, Replay: img2}
	if anon.Fingerprint() != "" {
		t.Fatal("artifact-less replay job must have an empty key")
	}
	out := pool.RunOne(ctx, anon)
	if out.Err != nil || out.Cached {
		t.Fatalf("anonymous replay: %+v", out)
	}
}

// writerBuffer is a minimal io.Writer accumulating bytes (avoids
// importing bytes just for one buffer).
type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}
