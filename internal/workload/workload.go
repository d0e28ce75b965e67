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
	"strconv"
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
		// Quoted before formatting: %q would let name escape, and with
		// it a caller's Spec and the parameter map it carries.
		return nil, fmt.Errorf("unknown workload %s (registered: %s)", strconv.Quote(name), strings.Join(Names(), ", "))
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

// Spec selects a program from the registry: a name plus parameter
// assignments, validated against the definition's schema when it is
// resolved. On the wire the spec is flat — {"name": "fft", "logn": 12}
// — the form of a flashd request's workload and of a trace container's
// source metadata.
type Spec struct {
	Name   string
	Params map[string]any
}

// Resolve looks the spec's workload up and validates its parameters,
// filling the rest with the defaults of the given scale.
func (s Spec) Resolve(quick bool) (*Definition, Values, error) {
	def, err := Lookup(s.Name)
	if err != nil {
		return nil, nil, err
	}
	vals, err := def.Resolve(s.Params, quick)
	if err != nil {
		return nil, nil, err
	}
	return def, vals, nil
}

// Program builds the workload at full scale for the given thread count.
func (s Spec) Program(procs int) (emitter.Program, error) {
	def, vals, err := s.Resolve(false)
	if err != nil {
		return emitter.Program{}, err
	}
	return def.Build(vals, procs), nil
}

// MarshalJSON renders the canonical flat object: the name first, then
// the parameters sorted by name.
func (s Spec) MarshalJSON() ([]byte, error) {
	name, err := json.Marshal(s.Name)
	if err != nil {
		return nil, err
	}
	out := append([]byte(`{"name":`), name...)
	if len(s.Params) > 0 {
		params, err := json.Marshal(s.Params) // a map marshals with sorted keys
		if err != nil {
			return nil, err
		}
		out = append(append(out, ','), params[1:len(params)-1]...)
	}
	return append(out, '}'), nil
}

// UnmarshalJSON accepts the flat wire object. Only the shape is checked
// here; the parameters are validated when the spec is resolved, so a
// decode error and a parameter error stay distinguishable.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	s.Name, _ = raw["name"].(string)
	delete(raw, "name")
	s.Params = nil
	if len(raw) > 0 {
		s.Params = raw
	}
	return nil
}
