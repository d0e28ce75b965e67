package runner

import (
	"fmt"
	"io"
	"testing"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/param"
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
// schema-versioning guarantees to the trace artifact kind: the trace
// key space is disjoint from run-result keys, the replay key space is
// disjoint from both, and a container FormatVersion bump changes every
// trace key — a new schema must never alias cache entries written by
// an old one.
func TestTraceFingerprintSchemaVersioned(t *testing.T) {
	cfg := machine.Base(2, true)
	cfg.Name = "fp-machine"
	prog := fpProg(2)

	run := Fingerprint(cfg, prog)
	tr := TraceFingerprint(cfg, prog)
	rp := ReplayFingerprint(cfg, tr)
	if run == tr || run == rp || tr == rp {
		t.Fatalf("artifact kinds must occupy disjoint key spaces: run=%s trace=%s replay=%s", run, tr, rp)
	}

	// The trace key is pinned to the container format version.
	if workloadKey(traceHead(trace.FormatVersion), param.Canonical(cfg), prog) != tr {
		t.Fatal("TraceFingerprint must hash the current FormatVersion")
	}
	if bumped := workloadKey(traceHead(trace.FormatVersion+1), param.Canonical(cfg), prog); bumped == tr {
		t.Fatal("a FormatVersion bump must change every trace fingerprint")
	}

	// Replay keys chain from the artifact: a different trace (e.g. one
	// written under a bumped schema) yields a different replay key
	// under the same machine configuration.
	other := workloadKey(traceHead(trace.FormatVersion+1), param.Canonical(cfg), prog)
	if ReplayFingerprint(cfg, other) == rp {
		t.Fatal("replay fingerprints must chain the trace artifact identity")
	}

	// Like run fingerprints, trace keys see semantics, not labels.
	renamed := cfg
	renamed.Name = "other-label"
	if TraceFingerprint(renamed, prog) != tr {
		t.Error("Name-only change must not change the trace fingerprint")
	}
	changed := cfg
	changed.ClockMHz = 300
	if TraceFingerprint(changed, prog) == tr {
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
	if meta.Fingerprint != Fingerprint(cfg, prog) || meta.Artifact != TraceFingerprint(cfg, prog) {
		t.Fatalf("provenance wrong: %+v", meta)
	}
	if len(meta.Config) == 0 || string(meta.Source) != `{"app":"x"}` {
		t.Fatalf("snapshots missing: %+v", meta)
	}
}

func TestTraceStoreSaveOnceLoad(t *testing.T) {
	ts, err := NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const fp = "00ab"
	if ts.Has(fp) {
		t.Fatal("empty store claims fingerprint")
	}
	write := func(w io.Writer) error {
		tw, err := trace.NewWriter(w, trace.Meta{Workload: "w", Threads: 1})
		if err != nil {
			return err
		}
		return tw.Finish()
	}
	stored, err := ts.Save(fp, write)
	if err != nil || !stored {
		t.Fatalf("first save: stored=%v err=%v", stored, err)
	}
	// Store-once: the second save must not re-invoke the writer.
	stored, err = ts.Save(fp, func(io.Writer) error {
		t.Fatal("duplicate save invoked the writer")
		return nil
	})
	if err != nil || stored {
		t.Fatalf("second save: stored=%v err=%v", stored, err)
	}
	if !ts.Has(fp) {
		t.Fatal("stored fingerprint not found")
	}
	tr, err := ts.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Workload() != "w" {
		t.Fatalf("loaded wrong container: %+v", tr.Meta())
	}
}

func TestTraceStoreFailedSaveLeavesNoEntry(t *testing.T) {
	ts, err := NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("capture failed")
	if _, err := ts.Save("ff01", func(io.Writer) error { return boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if ts.Has("ff01") {
		t.Fatal("failed save left a poisoned entry")
	}
}

// TestTraceStoreCapture: a capture lands at the run's TraceFingerprint
// with its source recorded, and a second capture of the same run
// neither runs nor writes.
func TestTraceStoreCapture(t *testing.T) {
	ts, err := NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, prog := machine.Base(2, true), fpProg(2)
	res, fp, stored, err := ts.Capture(cfg, prog, []byte(`{"name":"fp-test"}`))
	if err != nil || !stored || fp != TraceFingerprint(cfg, prog) || res.Instructions == 0 {
		t.Fatalf("first capture: fp %s, stored %v, %d instructions, err %v", fp, stored, res.Instructions, err)
	}
	tr, err := ts.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if m := tr.Meta(); m.Artifact != fp || string(m.Source) != `{"name":"fp-test"}` || tr.Instructions() != res.Instructions {
		t.Errorf("container meta %+v, %d instructions; captured %d", m, tr.Instructions(), res.Instructions)
	}
	res, again, stored, err := ts.Capture(cfg, prog, nil)
	if err != nil || stored || again != fp || res.Instructions != 0 {
		t.Errorf("second capture: fp %s, stored %v, %d instructions, err %v", again, stored, res.Instructions, err)
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

func TestTraceStoreRejectsUnsafeFingerprints(t *testing.T) {
	ts, err := NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"", "../evil", "ABCD", "xyz/q", "a b"} {
		if ts.Has(fp) {
			t.Errorf("Has(%q) = true", fp)
		}
		if _, err := ts.Save(fp, func(io.Writer) error { return nil }); err == nil {
			t.Errorf("Save(%q) accepted", fp)
		}
		if _, err := ts.Load(fp); err == nil {
			t.Errorf("Load(%q) accepted", fp)
		}
	}
}
