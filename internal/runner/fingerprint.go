package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
	"sync"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/trace"
)

// Fingerprint returns the content-addressed store key of one run: a
// hex SHA-256 over the machine configuration's canonical parameter
// encoding (param.AppendCanonical — every registered knob by dotted path,
// keys sorted, tagged with param.SchemaVersion) and the workload
// identity. Two runs share a fingerprint exactly when machine.Run is
// guaranteed to produce the same Result for both.
//
// Hashing the canonical encoding rather than the raw struct means that
// display labels (Config.Name) and nil-vs-explicit-default pointer
// fields (Config.NUMA, Config.MagicTable) do not change the key, so
// semantically identical runs are never recomputed; that Go field order
// and struct layout churn do not either; and that a param.SchemaVersion
// bump changes every key, so stale on-disk caches from an older build
// self-invalidate instead of serving wrong results.
//
// The workload identity is Program.FullName() plus the thread count;
// the apps and snbench constructors encode their parameterization in
// the Variant, which is what makes the name a sound cache key. A
// program whose Variant omits a behavior-changing parameter must not
// be memoized (leave the pool's store nil, or make the Variant
// complete).
//
// What is hashed is the JSON object {"Config":…,"Workload":…,
// "Threads":…} and a newline, byte for byte what json.Encoder writes —
// the keys on disk were issued that way — but appended directly, head,
// canonical configuration and workload, into one reused scratch buffer
// and hashed there: a memo hit pays for its key before it can look
// anything up, and the key costs one allocation, the string returned.
// For the same reason a job is keyed once: Job.Keyed memoizes the key at
// admission, and the pool's store lookup and fill read it there.
func Fingerprint(cfg machine.Config, prog emitter.Program) string {
	return workloadKey(runHead, &cfg, prog)
}

// runHead opens a run key's envelope, traceHead a trace key's at a
// given format version (the schema-versioning test bumps it).
const runHead = `{"Config":`

func traceHead(version int) string {
	return `{"Kind":"trace","TraceFormat":` + strconv.Itoa(version) + `,"Config":`
}

// keyBuf is the scratch a key is assembled and hashed in. The
// configuration is copied in with it: the registry's appenders are
// function values, so a pointer to the caller's copy would send that
// copy to the heap.
type keyBuf struct {
	cfg machine.Config
	b   []byte
}

var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

// canonical takes a scratch buffer holding head, which ends at the
// "Config" key, and cfg's canonical encoding.
func canonical(head string, cfg *machine.Config) *keyBuf {
	k := keyBufs.Get().(*keyBuf)
	k.cfg = *cfg
	k.b = param.AppendCanonical(append(k.b[:0], head...), &k.cfg)
	return k
}

// sum closes the envelope, hashes it — hex SHA-256, the one hash step
// of every fingerprint — and hands the scratch back.
func (k *keyBuf) sum() string {
	k.b = append(k.b, "}\n"...)
	h := sha256.Sum256(k.b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h[:])
	k.cfg = machine.Config{} // hold no pointer of the caller's
	keyBufs.Put(k)
	return string(out[:])
}

// workloadKey hashes one run or trace envelope: head, the canonical
// configuration, the workload identity. The identity is
// Program.FullName(), written without building it when its two halves
// are plain.
func workloadKey(head string, cfg *machine.Config, prog emitter.Program) string {
	k := canonical(head, cfg)
	k.b = append(k.b, `,"Workload":`...)
	if prog.Variant != "" && plain(prog.Name) && plain(prog.Variant) {
		k.b = append(append(append(append(append(k.b, '"'), prog.Name...), '/'), prog.Variant...), '"')
	} else {
		k.b = appendJSONString(k.b, prog.FullName())
	}
	k.b = strconv.AppendInt(append(k.b, `,"Threads":`...), int64(prog.Threads), 10)
	return k.sum()
}

// plain reports whether encoding/json writes s between quotes as it
// stands: printable ASCII free of what it escapes (", \, and for HTML's
// sake <, >, &).
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// appendJSONString writes s as encoding/json does: a plain string is
// copied between quotes, anything else left to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	if !plain(s) {
		quoted, _ := json.Marshal(s) // cannot fail: invalid UTF-8 is replaced
		return append(b, quoted...)
	}
	return append(append(append(b, '"'), s...), '"')
}

// ReplayFingerprint returns the store key of a trace-driven run: replay
// of the trace whose TraceMeta Artifact is traceFP on the machine
// described by cfg. The kind tag keeps replay results from ever
// aliasing execution-driven results under the same configuration — the
// two modes agree only at the bottom of the detail ladder, and the
// store must preserve the difference everywhere else. Chaining the artifact fingerprint (which
// embeds trace.FormatVersion) means a trace schema bump invalidates
// the derived replay results too.
func ReplayFingerprint(cfg machine.Config, traceFP string) string {
	k := canonical(`{"Kind":"replay","Config":`, &cfg)
	k.b = appendJSONString(append(k.b, `,"Trace":`...), traceFP)
	return k.sum()
}

// TraceMeta assembles the container metadata for capturing prog under
// cfg: workload identity, capture-run fingerprint, the trace's own
// content address, and the canonical configuration snapshot. source,
// when non-nil, is a machine-readable workload spec recorded verbatim
// (tools use it to rebuild the execution-driven program).
//
// Artifact, the content address, is the identity replay-result
// fingerprints chain from. It differs from Fingerprint in two ways: an
// explicit artifact kind tag (a trace file is not a run result — the two
// key spaces must never collide) and the trace container's
// FormatVersion (a container layout or stream semantics change must
// never alias artifacts written by an older build;
// TestTraceFingerprintSchemaVersioned pins this). The emitted streams
// depend only on (workload, threads), but the key conservatively
// includes the capture configuration, so "which run produced this
// trace" stays unambiguous.
func TraceMeta(cfg machine.Config, prog emitter.Program, source json.RawMessage) trace.Meta {
	return trace.Meta{
		Workload:    prog.FullName(),
		Threads:     prog.Threads,
		Fingerprint: workloadKey(runHead, &cfg, prog),
		Artifact:    workloadKey(traceHead(trace.FormatVersion), &cfg, prog),
		Config:      param.AppendCanonical(nil, &cfg),
		Source:      source,
	}
}
