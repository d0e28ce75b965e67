// Package param is the canonical registry of every tunable simulation
// parameter. The paper's methodology is "find the mis-set knob, tune
// it, re-measure"; this package makes the knob surface enumerable: every
// tunable reachable from a machine.Config — TLB handler cycles, the
// secondary-cache interface occupancy, the FlashLite bus and router
// constants, the Mipsy/MXS fidelity flags, MAGIC handler occupancies —
// is one registry entry with a dotted path ("os.tlb.handler_cycles",
// "l2.transfer_ns", "flash.bus_request_ns", ...), a type, a unit,
// bounds, and Get/Set accessors against a machine.Config.
//
// On top of the registry sit a versioned canonical encoding (the
// fingerprint key of the runner's memoizing store), a diff renderer
// (how calibrations and tuned-vs-untuned comparisons are reported), and
// string-based Set parsing (the CLIs' -set path=value flag). Adding a
// knob is one registration here; the calibrator, the fingerprint, the
// diff output, and every CLI pick it up automatically.
package param

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"flashsim/internal/machine"
)

// Kind is a parameter's value type. Canonical Go representations are
// bool (Bool), int64 (Int), uint64 (Uint), float64 (Float), and string
// (Enum); Get returns them and Set/SetValue coerce onto them.
type Kind uint8

const (
	// Bool is an on/off fidelity knob.
	Bool Kind = iota
	// Int is a signed count (procs, ways, banks).
	Int
	// Uint is an unsigned count or cycle cost.
	Uint
	// Float is a continuous quantity (latencies in ns, percentages).
	Float
	// Enum is a named choice (cpu.kind, os.kind, mem.kind).
	Enum
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Uint:
		return "uint"
	case Float:
		return "float"
	case Enum:
		return "enum"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrorClass is the paper's taxonomy of simulator error sources
// (§3.1.2), the Class column of the registry: what kind of error a wrong
// value of the parameter is. Parameters that describe the machine or the
// run rather than a modeling choice (geometry, procs, seed, sampling)
// carry none.
type ErrorClass string

const (
	// Bug: an outright modeling defect ("subtle performance bugs can
	// live in a production simulator for years").
	Bug ErrorClass = "bug"
	// Omission: a deliberately unmodeled effect (Solo's missing TLB
	// and OS, Mipsy's unit instruction latencies).
	Omission ErrorClass = "omission"
	// LackOfDetail: an effect that is modeled but not modeled
	// correctly (the 25/35-cycle TLB refill, the missing
	// secondary-cache interface occupancy, NUMA's missing occupancy).
	LackOfDetail ErrorClass = "lack-of-detail"
)

// Param describes one registered tunable.
type Param struct {
	// Path is the dotted registry path ("os.tlb.handler_cycles").
	Path string
	// Kind is the value type.
	Kind Kind
	// Unit documents the value's unit ("cycles", "ns", "bytes"; ""
	// for dimensionless counts and flags).
	Unit string
	// Doc is a one-line description.
	Doc string
	// Min and Max are inclusive bounds for numeric kinds.
	Min, Max float64
	// Values enumerates the legal strings of an Enum parameter.
	Values []string
	// Field is the Go field path inside machine.Config this parameter
	// covers ("OS.TLBHandlerCycles", "MagicTable[3]"); the
	// completeness test matches it against a reflection walk so no
	// Config field can silently bypass the registry.
	Field string
	// Default is the parameter's value in the registry's reference
	// configuration (machine.Base(4, true) with the SimOS OS model).
	Default any
	// Class is the kind of simulator error a wrong value is ("" for
	// parameters that are not fidelity choices).
	Class ErrorClass

	get func(*machine.Config) any
	set func(*machine.Config, any)
	// key and app are the parameter's half of Canonical: `"path":`, and
	// an appender of what json.Marshal writes for get's value.
	key string
	app func(dst []byte, c *machine.Config) []byte
}

// Get reads the parameter from cfg.
func (p Param) Get(cfg *machine.Config) any { return p.get(cfg) }

// Set writes a pre-coerced value into cfg; use SetValue or SetString
// for arbitrary input.
func (p Param) Set(cfg *machine.Config, v any) error {
	cv, err := p.coerce(v)
	if err != nil {
		return err
	}
	p.set(cfg, cv)
	return nil
}

// coerce converts v to the parameter's canonical representation,
// checking bounds and enum membership. JSON numbers (float64) are
// accepted for integer kinds when integral.
func (p Param) coerce(v any) (any, error) {
	fail := func() (any, error) {
		return nil, fmt.Errorf("param %s: cannot use %v (%T) as %s", p.Path, v, v, p.Kind)
	}
	switch p.Kind {
	case Bool:
		b, ok := v.(bool)
		if !ok {
			return fail()
		}
		return b, nil
	case Enum:
		s, ok := v.(string)
		if !ok {
			return fail()
		}
		for _, allowed := range p.Values {
			if s == allowed {
				return s, nil
			}
		}
		return nil, fmt.Errorf("param %s: %q is not one of %s", p.Path, s, strings.Join(p.Values, "|"))
	}
	// Numeric kinds: normalize through float64 (bounds are float64),
	// rejecting non-integral values for Int/Uint.
	var f float64
	switch n := v.(type) {
	case int:
		f = float64(n)
	case int64:
		f = float64(n)
	case uint32:
		f = float64(n)
	case uint64:
		f = float64(n)
	case float64:
		f = n
	default:
		return fail()
	}
	if f < p.Min || f > p.Max {
		return nil, fmt.Errorf("param %s: %v out of range [%v, %v]", p.Path, f, p.Min, p.Max)
	}
	switch p.Kind {
	case Int, Uint:
		if f != math.Trunc(f) {
			return nil, fmt.Errorf("param %s: %v is not an integer", p.Path, f)
		}
		if p.Kind == Int {
			return int64(f), nil
		}
		return uint64(f), nil
	default:
		return f, nil
	}
}

// ParseValue parses raw into the parameter's canonical representation
// without applying it.
func (p Param) ParseValue(raw string) (any, error) {
	switch p.Kind {
	case Bool:
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, fmt.Errorf("param %s: %q is not a bool", p.Path, raw)
		}
		return b, nil
	case Enum:
		return p.coerce(raw)
	default:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("param %s: %q is not a number", p.Path, raw)
		}
		return p.coerce(f)
	}
}

// registry state; ordered is kept sorted by path. Registration happens
// in package init (registry.go) and is immutable afterwards, so
// lock-free reads are safe.
var (
	byPath  = make(map[string]*Param)
	ordered []*Param
)

// register adds p to the registry, capturing its default from the
// reference configuration. Duplicate paths are a programming error.
func register(p Param) {
	if _, dup := byPath[p.Path]; dup {
		panic(fmt.Sprintf("param: duplicate registration of %s", p.Path))
	}
	ref := referenceConfig()
	p.Default = p.get(&ref)
	p.key = strconv.Quote(p.Path) + ":" // plain ASCII quotes as encoding/json would; tested
	sp := new(Param)
	*sp = p
	byPath[p.Path] = sp
	at, _ := slices.BinarySearchFunc(ordered, p.Path, func(o *Param, path string) int { return strings.Compare(o.Path, path) })
	ordered = slices.Insert(ordered, at, sp)
}

// referenceConfig is the configuration defaults are read from: the
// shared FLASH base parameters with the SimOS OS model.
func referenceConfig() machine.Config {
	cfg := machine.Base(4, true)
	cfg.OS = defaultOS()
	return cfg
}

// All returns every registered parameter sorted by path.
func All() []Param {
	out := make([]Param, 0, len(ordered))
	for _, p := range ordered {
		out = append(out, *p)
	}
	return out
}

// Lookup finds a parameter by path.
func Lookup(path string) (Param, bool) {
	p, ok := byPath[path]
	if !ok {
		return Param{}, false
	}
	return *p, true
}

// Get reads one parameter from cfg by path.
func Get(cfg *machine.Config, path string) (any, error) {
	p, ok := byPath[path]
	if !ok {
		return nil, fmt.Errorf("param: unknown path %q", path)
	}
	return p.get(cfg), nil
}

// SetValue writes one parameter into cfg by path, coercing v onto the
// parameter's type and checking bounds.
func SetValue(cfg *machine.Config, path string, v any) error {
	p, ok := byPath[path]
	if !ok {
		return fmt.Errorf("param: unknown path %q", path)
	}
	return p.Set(cfg, v)
}

// SetString parses raw and writes it into cfg by path — the engine of
// the CLIs' -set path=value flag.
func SetString(cfg *machine.Config, path, raw string) error {
	p, ok := byPath[path]
	if !ok {
		return fmt.Errorf("param: unknown path %q", path)
	}
	v, err := p.ParseValue(raw)
	if err != nil {
		return err
	}
	p.set(cfg, v)
	return nil
}

// Setting is one textual path=value override, as supplied on a command
// line or parsed from a config file.
type Setting struct {
	Path  string
	Value string
}

// ParseSetting splits a "path=value" argument.
func ParseSetting(s string) (Setting, error) {
	path, value, ok := strings.Cut(s, "=")
	if !ok || path == "" {
		return Setting{}, fmt.Errorf("param: %q is not path=value", s)
	}
	return Setting{Path: path, Value: value}, nil
}

// Validate checks the setting against the registry (path exists, value
// parses, bounds hold) without touching any configuration.
func (s Setting) Validate() error {
	p, ok := byPath[s.Path]
	if !ok {
		return fmt.Errorf("param: unknown path %q", s.Path)
	}
	_, err := p.ParseValue(s.Value)
	return err
}

// ApplySettings returns cfg with every setting applied, in order.
func ApplySettings(cfg machine.Config, settings []Setting) (machine.Config, error) {
	for _, s := range settings {
		if err := SetString(&cfg, s.Path, s.Value); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Describe renders the registry as an aligned table — the CLIs'
// -list-params output.
func Describe() string {
	var b strings.Builder
	for _, p := range All() {
		typ := p.Kind.String()
		if p.Kind == Enum {
			typ = strings.Join(p.Values, "|")
		}
		unit := p.Unit
		if unit != "" {
			unit = " " + unit
		}
		fmt.Fprintf(&b, "%-32s %-18s default %v%s — %s\n", p.Path, typ, p.Default, unit, p.Doc)
	}
	return b.String()
}
