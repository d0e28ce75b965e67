package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/trace"
)

// Fingerprint returns the content-addressed store key of one run: a
// hex SHA-256 over the machine configuration's canonical parameter
// encoding (param.Canonical — every registered knob by dotted path,
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
// the keys on disk were issued that way — but appended directly around
// the canonical bytes and hashed in one call: a memo hit pays for its
// key before it can look anything up. For the same reason a job is
// keyed once: Job.Keyed memoizes the key at admission, and the pool's
// store lookup and fill read it there.
func Fingerprint(cfg machine.Config, prog emitter.Program) string {
	return workloadKey(runHead, param.Canonical(cfg), prog)
}

// runHead opens a run key's envelope, traceHead a trace key's at a
// given format version (the schema-versioning test bumps it).
const runHead = `{"Config":`

func traceHead(version int) string {
	return `{"Kind":"trace","TraceFormat":` + strconv.Itoa(version) + `,"Config":`
}

// workloadKey hashes one run or trace envelope: head, which ends at the
// "Config" key, the encoded configuration, the workload identity.
func workloadKey(head string, canon []byte, prog emitter.Program) string {
	b := append(append(make([]byte, 0, len(head)+len(canon)+192), head...), canon...)
	b = appendJSONString(append(b, `,"Workload":`...), prog.FullName())
	b = strconv.AppendInt(append(b, `,"Threads":`...), int64(prog.Threads), 10)
	return sum(append(b, "}\n"...))
}

// appendJSONString writes s as encoding/json does: printable ASCII free
// of what it escapes (", \, and for HTML's sake <, >, &) is copied
// between quotes, anything else left to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			quoted, _ := json.Marshal(s) // cannot fail: invalid UTF-8 is replaced
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// sum is the one hash step of every fingerprint: hex SHA-256.
func sum(b []byte) string {
	h := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h[:])
	return string(out[:])
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
	canon := param.Canonical(cfg)
	b := append(append(make([]byte, 0, len(canon)+128), `{"Kind":"replay","Config":`...), canon...)
	b = appendJSONString(append(b, `,"Trace":`...), traceFP)
	return sum(append(b, "}\n"...))
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
	canon := param.Canonical(cfg)
	return trace.Meta{
		Workload:    prog.FullName(),
		Threads:     prog.Threads,
		Fingerprint: workloadKey(runHead, canon, prog),
		Artifact:    workloadKey(traceHead(trace.FormatVersion), canon, prog),
		Config:      canon,
		Source:      source,
	}
}
