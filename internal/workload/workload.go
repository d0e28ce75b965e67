// Package workload is the central workload registry: every program the
// simulator can run — the SPLASH-2-style kernels, the server-class
// generators, and the calibration microbenchmarks — is registered here
// by name with a typed, validated parameter schema and a generator
// constructor. The CLIs (-app/-p), the harness experiments, and the
// flashd {workload:{...}} job specs all resolve workloads through this
// one table, so a single registration makes a workload reachable from
// every execution mode: exec, sampled, trace capture/replay,
// and served.
package workload

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/param"
)

// The kinds a workload parameter takes are three of the machine
// registry's, and values become typed through its kernel
// (param.Coerce): one raw input has one verdict in both registries.
const (
	Int    = param.Int
	Bool   = param.Bool
	String = param.Enum
)

// Param describes one typed parameter of a workload. Parameter names
// double as the JSON keys of flashd workload specs and the -p key=value
// keys of the CLIs.
type Param struct {
	Name  string
	Kind  param.Kind
	Usage string
	// Default is the full-scale default; Quick, when non-nil, replaces
	// it at quick scale (tests, smoke runs, CI).
	Default any
	Quick   any
	// Min and Max are the inclusive bounds of an Int parameter.
	Min, Max int
	// Enum lists the values a String parameter takes.
	Enum []string
}

// Values is a resolved, validated parameter assignment: every parameter
// of the definition present, typed int64/bool/string.
type Values map[string]any

// Int returns an int parameter (panics on a name not in the schema —
// a registry bug, not an input error).
func (v Values) Int(name string) int {
	i, ok := v[name].(int64)
	if !ok {
		panic(fmt.Sprintf("workload: no int value %q", name))
	}
	return int(i)
}

// Bool returns a bool parameter.
func (v Values) Bool(name string) bool {
	b, ok := v[name].(bool)
	if !ok {
		panic(fmt.Sprintf("workload: no bool value %q", name))
	}
	return b
}

// Str returns a string parameter.
func (v Values) Str(name string) string {
	s, ok := v[name].(string)
	if !ok {
		panic(fmt.Sprintf("workload: no string value %q", name))
	}
	return s
}

// Definition is one registered workload.
type Definition struct {
	// Name is the registry key ("fft", "gups", "snbench.restart", ...).
	Name string
	// Description is the one-line summary shown by -list-workloads.
	Description string
	// Params is the parameter schema, in display order.
	Params []Param
	// Build constructs the program for a complete, validated Values at
	// the given thread count. (Microbenchmarks with intrinsic thread
	// counts may ignore procs.)
	Build func(v Values, procs int) emitter.Program
	// Label renders the study display name ("FFT(cache-blk)",
	// "Radix(r=32)-unplaced"); nil falls back to Name.
	Label func(v Values) string
}

// registry is the global name -> definition table, populated by
// Register calls from init functions.
var registry = map[string]*Definition{}

// Register adds a definition; duplicate names are a programming error.
func Register(d Definition) {
	if d.Name == "" || d.Build == nil {
		panic("workload: Register needs a name and a builder")
	}
	if _, dup := registry[d.Name]; dup {
		panic("workload: duplicate registration of " + d.Name)
	}
	registry[d.Name] = &d
}

// Names returns every registered workload name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every definition in name order.
func All() []*Definition {
	defs := make([]*Definition, 0, len(registry))
	for _, n := range Names() {
		defs = append(defs, registry[n])
	}
	return defs
}

// Lookup resolves a workload name. The error on a miss lists every
// registered name, so a typo on a CLI flag or in a flashd job spec is
// self-correcting.
func Lookup(name string) (*Definition, error) {
	if name == "" {
		return nil, fmt.Errorf("workload name missing (registered: %s)", strings.Join(Names(), ", "))
	}
	d, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return d, nil
}

// Describe renders the registry as the -list-workloads text: one
// unindented line per workload followed by its parameter schema.
func Describe() string {
	var b strings.Builder
	for _, d := range All() {
		fmt.Fprintf(&b, "%s\n    %s\n", d.Name, d.Description)
		for _, p := range d.Params {
			def := fmt.Sprintf("%v", p.Default)
			if p.Quick != nil {
				def += fmt.Sprintf(", quick %v", p.Quick)
			}
			fmt.Fprintf(&b, "    %-16s %-6s %s (default %s)\n", p.Name, p.Kind, p.Usage, def)
		}
	}
	return b.String()
}

// Resolve validates a raw parameter assignment against the schema and
// fills the remaining parameters with defaults (Quick defaults when
// quick is set). Raw values may be native Go values, JSON-decoded
// values (float64 numbers), or strings (CLI -p key=value) — what
// param.Coerce takes; an unknown name fails with the accepted parameter
// list, a refused value with the parameter's name.
func (d *Definition) Resolve(raw map[string]any, quick bool) (Values, error) {
	for name := range raw {
		if !slices.ContainsFunc(d.Params, func(p Param) bool { return p.Name == name }) {
			names := make([]string, len(d.Params))
			for i, p := range d.Params {
				names[i] = p.Name
			}
			return nil, fmt.Errorf("workload %s: unknown parameter %q (accepts: %s)", d.Name, name, strings.Join(names, ", "))
		}
	}
	vals := make(Values, len(d.Params))
	for _, p := range d.Params {
		rv, given := raw[p.Name]
		if !given {
			rv = p.Default
			if quick && p.Quick != nil {
				rv = p.Quick
			}
		}
		v, err := param.Coerce(p.Kind, float64(p.Min), float64(p.Max), p.Enum, rv)
		if err != nil {
			if !given {
				panic(fmt.Sprintf("workload %s: bad default for %s: %v", d.Name, p.Name, err))
			}
			return nil, fmt.Errorf("workload %s: parameter %s: %w", d.Name, p.Name, err)
		}
		vals[p.Name] = v
	}
	return vals, nil
}

// DisplayName renders the study label for a resolved assignment.
func (d *Definition) DisplayName(v Values) string {
	if d.Label != nil {
		return d.Label(v)
	}
	return d.Name
}

// Workload adapts a resolved definition to the core.Workload shape the
// Reference/Study/Speedups machinery consumes.
func (d *Definition) Workload(v Values) core.Workload {
	return core.Workload{
		Name: d.DisplayName(v),
		Make: func(procs int) emitter.Program { return d.Build(v, procs) },
	}
}

// EncodeSpec renders a workload selection as the canonical JSON object
// of the flashd job specs and trace-container source metadata:
// {"name": ..., <param>: <value>, ...} with parameters sorted by name.
func EncodeSpec(name string, params map[string]any) (json.RawMessage, error) {
	var b strings.Builder
	b.WriteString(`{"name":`)
	nb, err := json.Marshal(name)
	if err != nil {
		return nil, err
	}
	b.Write(nb)
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		vb, err := json.Marshal(params[k])
		if err != nil {
			return nil, err
		}
		b.WriteByte(',')
		b.Write(kb)
		b.WriteByte(':')
		b.Write(vb)
	}
	b.WriteByte('}')
	return json.RawMessage(b.String()), nil
}
