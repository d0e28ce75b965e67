package runner_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

// The three ref* fingerprints are the bodies the keys were first issued
// by, kept verbatim: the snapshot map through json.Marshal, wrapped in
// an anonymous struct through json.Encoder, hashed incrementally. Every
// memo store entry and trace artifact is addressed by their output, so
// the direct encoders must reproduce it exactly.

func refCanonical(cfg machine.Config) []byte {
	data, err := json.Marshal(param.SnapshotOf(cfg))
	if err != nil {
		panic(fmt.Sprintf("param: canonical encoding failed: %v", err))
	}
	return data
}

func refFingerprint(cfg machine.Config, prog emitter.Program) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	err := enc.Encode(struct {
		Config   json.RawMessage
		Workload string
		Threads  int
	}{refCanonical(cfg), prog.FullName(), prog.Threads})
	if err != nil {
		// The payload is a pre-encoded JSON blob plus plain data; an
		// encoding failure is a programming error, not a runtime
		// condition.
		panic(fmt.Sprintf("runner: fingerprint encoding failed: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refTraceFingerprint(cfg machine.Config, prog emitter.Program) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	err := enc.Encode(struct {
		Kind        string
		TraceFormat int
		Config      json.RawMessage
		Workload    string
		Threads     int
	}{"trace", trace.FormatVersion, refCanonical(cfg), prog.FullName(), prog.Threads})
	if err != nil {
		panic(fmt.Sprintf("runner: trace fingerprint encoding failed: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refReplayFingerprint(cfg machine.Config, traceFP string) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	err := enc.Encode(struct {
		Kind   string
		Config json.RawMessage
		Trace  string
	}{"replay", refCanonical(cfg), traceFP})
	if err != nil {
		panic(fmt.Sprintf("runner: replay fingerprint encoding failed: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireSameKeys compares every key kind for one (config, program)
// pair against the reference encoders.
func requireSameKeys(t *testing.T, cfg machine.Config, prog emitter.Program) {
	t.Helper()
	what := fmt.Sprintf("%q on %q (%d procs)", prog.FullName(), cfg.Name, cfg.Procs)
	if got, want := runner.Fingerprint(cfg, prog), refFingerprint(cfg, prog); got != want {
		t.Errorf("Fingerprint of %s = %s, reference %s", what, got, want)
	}
	tr := refTraceFingerprint(cfg, prog)
	if got := runner.TraceMeta(cfg, prog, nil).Artifact; got != tr {
		t.Errorf("trace artifact key of %s = %s, reference %s", what, got, tr)
	}
	if got, want := runner.ReplayFingerprint(cfg, tr), refReplayFingerprint(cfg, tr); got != want {
		t.Errorf("ReplayFingerprint of %s = %s, reference %s", what, got, want)
	}
}

// registryProgram builds a registered workload at its full-scale or
// quick defaults.
func registryProgram(t *testing.T, name string, procs int, quick bool) emitter.Program {
	t.Helper()
	def, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := def.Resolve(nil, quick)
	if err != nil {
		t.Fatal(err)
	}
	return def.Build(vals, procs)
}

// TestFingerprintsMatchReference: every named configuration at 1, 4 and
// 32 processors, against every registered workload's name at both
// scales.
func TestFingerprintsMatchReference(t *testing.T) {
	for _, procs := range []int{1, 4, 32} {
		cfgs := []machine.Config{hw.Config(procs, true)}
		for _, name := range core.ConfigNames {
			cfg, err := core.ConfigByName(name, procs, 225, true)
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, cfg)
		}
		for _, def := range workload.All() {
			for _, quick := range []bool{false, true} {
				vals, err := def.Resolve(nil, quick)
				if err != nil {
					t.Fatal(err)
				}
				prog := def.Build(vals, procs)
				for _, cfg := range cfgs {
					requireSameKeys(t, cfg, prog)
				}
			}
		}
	}
}

// TestFingerprintsEscapeLikeJSON: the envelope's strings take a fast
// path for plain ASCII. Everything encoding/json escapes — quotes,
// backslashes, control bytes, the HTML-sensitive <, > and &, U+2028 and
// U+2029, invalid UTF-8 — must come out as it wrote them.
func TestFingerprintsEscapeLikeJSON(t *testing.T) {
	cfg := core.SimOSMipsy(2, 150, true)
	for _, name := range []string{
		"", "plain/ascii n=1 b=2", `quo"te`, `back\slash`, "tab\there", "nul\x00", "del\x7f",
		"a<b", "a>b", "a&b", "caf\u00e9", "line\u2028sep", "para\u2029sep", "bad\xffutf8", "\U0001F600",
	} {
		prog := emitter.Program{Name: name, Threads: 2}
		requireSameKeys(t, cfg, prog)
		prog = emitter.Program{Name: "w", Variant: name, Threads: 2}
		requireSameKeys(t, cfg, prog)
		if got, want := runner.ReplayFingerprint(cfg, name), refReplayFingerprint(cfg, name); got != want {
			t.Errorf("ReplayFingerprint over trace %q = %s, reference %s", name, got, want)
		}
	}
}

// TestFingerprintsPinned holds four keys: a warm cache stays warm only
// if these exact strings keep coming out. They were recorded when the
// schema tag became 6, which moved every key on purpose; the reference
// encoders above are what ties them to the keys first issued.
func TestFingerprintsPinned(t *testing.T) {
	fft, lu := registryProgram(t, "fft", 4, false), registryProgram(t, "lu", 4, false)
	mipsy := core.SimOSMipsy(4, 150, true)
	const tracePin = "f0837d1249e33566420543b90102a55b720bcd20cc69cf060c0363aa1ad49ac8"
	for _, c := range []struct{ what, got, want string }{
		{"Fingerprint(simos-mipsy, fft)", runner.Fingerprint(mipsy, fft),
			"37fe1843c79e9910b7339b2ba84cbd89c1363ffb6aaed487d7c7e435209e2a32"},
		{"Fingerprint(hw, lu)", runner.Fingerprint(hw.Config(4, true), lu),
			"9a77e03102f77f440e4774d4667f9e5933206f8d56456731905e057c92c32ad2"},
		{"TraceMeta(simos-mipsy, fft).Artifact", runner.TraceMeta(mipsy, fft, nil).Artifact, tracePin},
		{"ReplayFingerprint(simos-mxs, that trace)", runner.ReplayFingerprint(core.SimOSMXS(4, true), tracePin),
			"a4459d32fbd640327d6d858eb8cb6e62feaeceee312f623d2062545baf78145a"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, pinned %s", c.what, c.got, c.want)
		}
	}
	if param.SchemaVersion != 6 {
		t.Errorf("SchemaVersion = %d; the pins above were recorded under 6", param.SchemaVersion)
	}
}

// TestTraceMetaMatchesReference: the container metadata derives its
// three config-dependent fields from one encoding; they must be the
// ones the reference encoders give.
func TestTraceMetaMatchesReference(t *testing.T) {
	cfg, prog := core.SimOSMXS(4, true), registryProgram(t, "ocean", 4, false)
	meta := runner.TraceMeta(cfg, prog, nil)
	if meta.Fingerprint != refFingerprint(cfg, prog) || meta.Artifact != refTraceFingerprint(cfg, prog) ||
		string(meta.Config) != string(refCanonical(cfg)) {
		t.Errorf("TraceMeta disagrees with the reference encoders: %+v", meta)
	}
}

// TestKeyedJobCarriesItsOwnKey: Keyed memoizes exactly Fingerprint of
// the job as it stands, overrides included.
func TestKeyedJobCarriesItsOwnKey(t *testing.T) {
	cfg, prog := testCfg(2), tinyProg(2, 100)
	j := runner.Job{Config: cfg, Prog: prog}
	j.Seed, j.Procs = 9, 4
	want := cfg
	want.Seed, want.Procs = 9, 4
	if got := j.Keyed().Fingerprint(); got != runner.Fingerprint(want, prog) {
		t.Errorf("keyed job with overrides has key %s, want the overridden config's %s", got, runner.Fingerprint(want, prog))
	}
	if j.Keyed().Fingerprint() == (runner.Job{Config: cfg, Prog: prog}).Keyed().Fingerprint() {
		t.Error("overrides set before keying did not reach the key")
	}
}

// TestKeyAllocations pins what a reused run pays before and for its
// lookup: a key is the canonical encoding, the envelope, the workload
// name and the hex string; a memo hit adds the pool's bookkeeping and
// the store's copy of the result.
func TestKeyAllocations(t *testing.T) {
	cfg, prog := core.SimOSMipsy(1, 150, true), registryProgram(t, "fft", 1, false)
	if n := testing.AllocsPerRun(100, func() { runner.Fingerprint(cfg, prog) }); n > 6 {
		t.Errorf("Fingerprint: %v allocs per call, want at most 6", n)
	}
	pool, job := warmPool(t)
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { pool.RunOne(ctx, job) }); n > 12 {
		t.Errorf("Pool.RunOne memo hit: %v allocs per call, want at most 12", n)
	}
}

// warmPool returns a pool over an in-memory store that already holds
// job's result, so every RunOne of it is a memo hit.
func warmPool(t testing.TB) (*runner.Pool, runner.Job) {
	t.Helper()
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(1, store)
	job := runner.Job{Config: testCfg(1), Prog: tinyProg(1, 100)}
	if out := pool.RunOne(context.Background(), job); out.Err != nil || out.Cached {
		t.Fatalf("priming run: %+v", out)
	}
	if out := pool.RunOne(context.Background(), job); !out.Cached {
		t.Fatal("second run of the primed job missed the store")
	}
	return pool, job
}

var fingerprintSink string

func BenchmarkFingerprint(b *testing.B) {
	cfg := core.SimOSMipsy(1, 150, true)
	prog := emitter.Program{Name: "fft", Variant: "tlb-blocked n=4096", Threads: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink = runner.Fingerprint(cfg, prog)
	}
}

// BenchmarkPoolHit is the whole price of a reused run below the HTTP
// layer: key, store lookup, result copy, counters.
func BenchmarkPoolHit(b *testing.B) {
	pool, job := warmPool(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := pool.RunOne(ctx, job); !out.Cached {
			b.Fatal("memo miss")
		}
	}
}
