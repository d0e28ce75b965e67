package param

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"flashsim/internal/machine"
)

// SchemaVersion tags the canonical encoding. Bump it whenever the
// registry's path set or value semantics change incompatibly — or when
// the stored Result record grows fields that old cache entries lack
// (e.g. the per-run Metrics block); the tag is hashed into every run
// fingerprint, so stale on-disk result caches self-invalidate instead
// of serving results computed under an old Config layout.
// Version 4: the sampling.* group joined the registry and Result grew
// sampling metadata (Sampled/Sampling fields).
// Version 5: Result carries each counter once — the subsystems' stats
// types under Metrics, directory case counts an array — so a version-4
// entry would decode with silent zeros where its counters moved.
// Version 6: the sampling.* group left the registry.
const SchemaVersion = 6

// Snapshot is the canonical, versioned form of a machine.Config: every
// registered parameter by dotted path. The config's Name is a display
// label, not a parameter, and is deliberately absent — two configs that
// differ only in Name are the same simulator.
type Snapshot struct {
	Schema int            `json:"schema"`
	Params map[string]any `json:"params"`
}

// SnapshotOf captures cfg's registered parameters.
func SnapshotOf(cfg machine.Config) Snapshot {
	s := Snapshot{Schema: SchemaVersion, Params: make(map[string]any, len(ordered))}
	for _, p := range ordered {
		s.Params[p.Path] = p.get(&cfg)
	}
	return s
}

// Canonical returns the canonical JSON encoding of cfg: schema version
// plus all registered parameters with keys in sorted order, independent
// of Go field order, field additions that register new paths at their
// defaults... the same semantics always produce the same bytes. This is
// the runner's fingerprint payload, which a memo hit pays for before it
// can look anything up, so the bytes — json.Marshal(SnapshotOf(cfg))
// exactly; every cache on disk is keyed on them — are appended directly:
// keys sorted and quoted at registration, each value written from the
// Config by its typed appender, no map, boxing or reflection.
func Canonical(cfg machine.Config) []byte {
	if encodeHook != nil {
		encodeHook()
	}
	dst := append(make([]byte, 0, 2<<10), `{"schema":`...) // encodings run to ≈1.6 KB
	dst = append(strconv.AppendInt(dst, SchemaVersion, 10), `,"params":{`...)
	for _, p := range ordered {
		dst = append(p.app(append(dst, p.key...), &cfg), ',')
	}
	dst[len(dst)-1] = '}' // the last separator closes "params"
	return append(dst, '}')
}

// encodeHook, when non-nil, runs in every Canonical: tests count
// encodings with it. It is nil in production.
var encodeHook func()

// appendFloat writes f as encoding/json does: the shortest decimal that
// round-trips, in exponent form below 1e-6 and from 1e21, a two-digit
// negative exponent shortened (e-07 becomes e-7). NaN and the infinities
// have no JSON form; json.Marshal refused them and Canonical panicked.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("param: canonical encoding failed: unsupported value %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst = append(dst[:n-2], dst[n-1])
	}
	return dst
}

// ParseSnapshot decodes a snapshot file. Both the full versioned form
// {"schema":2,"params":{...}} and a bare {"path": value} object (a
// hand-written override file) are accepted. A schema from a different
// version is rejected rather than silently misapplied.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err == nil && s.Params != nil {
		if s.Schema != 0 && s.Schema != SchemaVersion {
			return s, fmt.Errorf("param: snapshot schema %d, this build speaks %d", s.Schema, SchemaVersion)
		}
		return s, nil
	}
	var bare map[string]any
	if err := json.Unmarshal(data, &bare); err != nil {
		return s, fmt.Errorf("param: not a parameter snapshot: %w", err)
	}
	return Snapshot{Schema: SchemaVersion, Params: bare}, nil
}

// ApplySnapshot returns cfg with every parameter in s applied. Unknown
// paths are errors: a snapshot that names a parameter this build does
// not know is from a different schema, and ignoring the entry would
// silently run the wrong simulator.
func ApplySnapshot(cfg machine.Config, s Snapshot) (machine.Config, error) {
	// Apply in sorted order for deterministic error reporting.
	paths := make([]string, 0, len(s.Params))
	for path := range s.Params {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := SetValue(&cfg, path, s.Params[path]); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Delta is one parameter change: the unit of a Calibration and of a
// rendered tuning diff.
type Delta struct {
	Path   string `json:"path"`
	Before any    `json:"before"`
	After  any    `json:"after"`
}

// String renders the delta with the parameter's unit.
func (d Delta) String() string {
	unit := ""
	if p, ok := Lookup(d.Path); ok && p.Unit != "" {
		unit = " " + p.Unit
	}
	return fmt.Sprintf("%-30s %s -> %s%s", d.Path, renderValue(d.Before), renderValue(d.After), unit)
}

// Class is the error class of the path the delta changes.
func (d Delta) Class() ErrorClass {
	p, _ := Lookup(d.Path)
	return p.Class
}

// renderValue formats a delta endpoint for humans: floats at a sensible
// precision (they come out of fitting loops with full float64 noise),
// everything else via %v.
func renderValue(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.6g", f)
	}
	return fmt.Sprintf("%v", v)
}

// Diff lists every registered parameter whose value differs between a
// and b, sorted by path. Names are not compared (they are labels).
func Diff(a, b machine.Config) []Delta {
	var out []Delta
	for _, p := range All() {
		va, vb := p.get(&a), p.get(&b)
		if va != vb {
			out = append(out, Delta{Path: p.Path, Before: va, After: vb})
		}
	}
	return out
}

// ApplyDeltas returns cfg with every delta's After value applied, in
// order.
func ApplyDeltas(cfg machine.Config, deltas []Delta) (machine.Config, error) {
	for _, d := range deltas {
		if err := SetValue(&cfg, d.Path, d.After); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// RenderDeltas renders a parameter diff as an indented block, one delta
// per line ("(no parameter differences)" when empty) — the
// human-readable form of a Calibration and of tuned-vs-untuned config
// comparisons.
func RenderDeltas(deltas []Delta) string {
	if len(deltas) == 0 {
		return "  (no parameter differences)\n"
	}
	var b strings.Builder
	for _, d := range deltas {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
