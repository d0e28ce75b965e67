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
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"flashsim/internal/machine"
)

// Kind is a parameter's value type. Canonical Go representations are
// bool (Bool), int64 (Int), uint64 (Uint), float64 (Float), and string
// (Enum); Get returns them and Coerce converts onto them.
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
// run rather than a modeling choice (geometry, procs, seed) carry none.
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
	// key and app are the parameter's half of AppendCanonical:
	// `"path":`, and an appender of what json.Marshal writes for get's
	// value.
	key string
	app func(dst []byte, c *machine.Config) []byte
}

// Get reads the parameter from cfg.
func (p Param) Get(cfg *machine.Config) any { return p.get(cfg) }

// Coerce converts a raw value to the canonical representation of kind
// k, checking the inclusive bounds of a numeric kind and the membership
// of an Enum. It is the one conversion under this registry and the
// workload registry, so one rule decides what raw may be in both: a
// string is the text form (a -set or -p value, a string in a JSON
// document) and is parsed; anything else must be the native or
// JSON-decoded form — a bool for Bool, a Go integer, float64 or
// json.Number for the numeric kinds (integral for Int and Uint), nothing
// for Enum. NaN is refused everywhere: it would pass any comparison
// against the bounds. The error is unprefixed; each registry names its
// own parameter.
func Coerce(k Kind, min, max float64, values []string, raw any) (any, error) {
	text, isText := raw.(string)
	var f float64
	switch k {
	case Bool:
		if b, ok := raw.(bool); ok {
			return b, nil
		}
		if isText {
			b, err := strconv.ParseBool(text)
			if err != nil {
				return nil, fmt.Errorf("%q is not a bool", text)
			}
			return b, nil
		}
	case Enum:
		if isText {
			if !slices.Contains(values, text) {
				return nil, fmt.Errorf("%q is not one of %s", text, strings.Join(values, "|"))
			}
			return text, nil
		}
	default:
		// Numeric kinds go through float64, which the bounds are.
		switch n := raw.(type) {
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
		case json.Number:
			text, isText = string(n), true
		default:
			if !isText {
				return nil, cannotUse(raw, k)
			}
		}
		if isText {
			var err error
			if f, err = strconv.ParseFloat(text, 64); err != nil {
				return nil, fmt.Errorf("%q is not a number", text)
			}
		}
		if math.IsNaN(f) || f < min || f > max {
			return nil, fmt.Errorf("%v out of range [%v, %v]", f, min, max)
		}
		if k == Float {
			return f, nil
		}
		if f != math.Trunc(f) {
			return nil, fmt.Errorf("%v is not an integer", f)
		}
		if k == Int {
			return int64(f), nil
		}
		return uint64(f), nil
	}
	return nil, cannotUse(raw, k)
}

// cannotUse names raw's type through reflect, not %v or %T: handing raw
// itself to fmt would make every caller's value escape, and the string
// ApplySettings passes down would be boxed on the heap for each setting.
func cannotUse(raw any, k Kind) error {
	return fmt.Errorf("cannot use a %v as %s", reflect.TypeOf(raw), k)
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

// convert finds path's parameter and coerces raw onto its type.
func convert(path string, raw any) (*Param, any, error) {
	p, ok := byPath[path]
	if !ok {
		return nil, nil, fmt.Errorf("param: unknown path %q", path)
	}
	v, err := Coerce(p.Kind, p.Min, p.Max, p.Values, raw)
	if err != nil {
		return nil, nil, fmt.Errorf("param %s: %w", path, err)
	}
	return p, v, nil
}

// SetValue writes one parameter into cfg by path, coercing v onto the
// parameter's type and checking bounds. A string v is the text form —
// the engine of the CLIs' -set path=value flag.
func SetValue(cfg *machine.Config, path string, v any) error {
	p, cv, err := convert(path, v)
	if err != nil {
		return err
	}
	p.set(cfg, cv)
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
	_, _, err := convert(s.Path, s.Value)
	return err
}

// ApplySettings returns cfg with every setting applied, in order.
func ApplySettings(cfg machine.Config, settings []Setting) (machine.Config, error) {
	for _, s := range settings {
		if err := SetValue(&cfg, s.Path, s.Value); err != nil {
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
