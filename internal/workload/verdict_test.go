package workload_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/workload"
)

// verdictSchema is a workload schema whose three parameters are typed
// and bounded exactly like three machine-registry paths, so one raw
// input can be put to both registries.
var verdictSchema = workload.Definition{
	Name: "verdict",
	Params: []workload.Param{
		{Name: "n", Kind: workload.Int, Default: 1, Min: 1, Max: 1024},          // procs
		{Name: "on", Kind: workload.Bool, Default: false},                       // l2.model_interface_occupancy
		{Name: "pick", Kind: workload.String, Default: "mipsy", Enum: cpuKinds}, // cpu.kind
	},
}

var cpuKinds = []string{"mipsy", "mxs"}

// TestOneVerdict puts one table of raw inputs — Go natives, what
// encoding/json decodes to, and text — through every door a value
// enters by: param.SetValue (-config files, deltas, snapshots),
// param.ApplySettings (-set, flashd's "set") and Definition.Resolve (-p,
// flashd's "workload"). A string goes through all three, anything else
// through SetValue and Resolve; the float rows have no workload twin
// (no workload parameter is a float). want is the typed value every
// door must store, nil when every door must refuse.
func TestOneVerdict(t *testing.T) {
	const intPath, boolPath, enumPath, floatPath = "procs", "l2.model_interface_occupancy", "cpu.kind", "l2.transfer_ns"
	twin := map[string]string{intPath: "n", boolPath: "on", enumPath: "pick"}
	if p, reg := verdictSchema.Params[0], mustLookup(t, intPath); float64(p.Min) != reg.Min || float64(p.Max) != reg.Max {
		t.Fatalf("the schema bounds n at [%d, %d], the registry bounds %s at [%v, %v]", p.Min, p.Max, intPath, reg.Min, reg.Max)
	}
	if reg := mustLookup(t, enumPath); strings.Join(reg.Values, "|") != strings.Join(cpuKinds, "|") {
		t.Fatalf("%s takes %v, the schema %v", enumPath, reg.Values, cpuKinds)
	}

	for _, row := range []struct {
		name string
		path string
		raw  any
		want any
	}{
		// Integers, bounded [1, 1024].
		{"int", intPath, 8, int64(8)},
		{"int64", intPath, int64(8), int64(8)},
		{"uint64", intPath, uint64(8), int64(8)},
		{"JSON integral", intPath, float64(8), int64(8)},
		{"JSON fractional", intPath, 8.5, nil},
		{"json.Number", intPath, json.Number("8"), int64(8)},
		{"json.Number fractional", intPath, json.Number("8.5"), nil},
		{`text "8"`, intPath, "8", int64(8)},
		{`text "1e1"`, intPath, "1e1", int64(10)},
		{`text "8.5"`, intPath, "8.5", nil},
		{`text "eight"`, intPath, "eight", nil},
		{"empty text", intPath, "", nil},
		{"below range", intPath, 0, nil},
		{"above range", intPath, 1025, nil},
		{"text above range", intPath, "2000", nil},
		{"2^53+1", intPath, int64(1<<53 + 1), nil},
		{"uint64 2^53+1", intPath, uint64(1<<53 + 1), nil},
		{"uint64 max", intPath, uint64(math.MaxUint64), nil},
		{"NaN", intPath, math.NaN(), nil},
		{`text "NaN"`, intPath, "NaN", nil},
		{`text "Inf"`, intPath, "Inf", nil},
		{"bool for an int", intPath, true, nil},
		{"null for an int", intPath, nil, nil},

		// Booleans.
		{"bool", boolPath, true, true},
		{`text "true"`, boolPath, "true", true},
		{`text "1"`, boolPath, "1", true},
		{`text "yes"`, boolPath, "yes", nil},
		{"int for a bool", boolPath, 1, nil},
		{"JSON number for a bool", boolPath, float64(1), nil},

		// Named choices.
		{"enum", enumPath, "mxs", "mxs"},
		{"enum miss", enumPath, "z80", nil},
		{"int for an enum", enumPath, 3, nil},

		// Floats, bounded [0, 1e6]; the machine registry only.
		{"float", floatPath, 212.5, 212.5},
		{"int for a float", floatPath, 200, 200.0},
		{"text float", floatPath, "212.5", 212.5},
		{"float NaN", floatPath, math.NaN(), nil},
		{`float text "NaN"`, floatPath, "NaN", nil},
		{`float text "+Inf"`, floatPath, "+Inf", nil},
		{`float text "-Inf"`, floatPath, "-Inf", nil},
		{"float above range", floatPath, 1e308, nil},
	} {
		doors := map[string]func() (any, error){
			"SetValue": func() (any, error) {
				cfg := machine.Base(4, true)
				if err := param.SetValue(&cfg, row.path, row.raw); err != nil {
					return nil, err
				}
				return param.Get(&cfg, row.path)
			},
		}
		if text, ok := row.raw.(string); ok {
			doors["ApplySettings"] = func() (any, error) {
				cfg, err := param.ApplySettings(machine.Base(4, true), []param.Setting{{Path: row.path, Value: text}})
				if err != nil {
					return nil, err
				}
				return param.Get(&cfg, row.path)
			}
		}
		if name, ok := twin[row.path]; ok {
			doors["Resolve"] = func() (any, error) {
				vals, err := verdictSchema.Resolve(map[string]any{name: row.raw}, false)
				if err != nil {
					return nil, err
				}
				switch row.path {
				case intPath:
					return int64(vals.Int(name)), nil
				case boolPath:
					return vals.Bool(name), nil
				}
				return vals.Str(name), nil
			}
		}
		for door, enter := range doors {
			got, err := enter()
			if got != row.want || (err == nil) != (row.want != nil) {
				t.Errorf("%s through %s: got %v (%T), err %v; want %v (%T)", row.name, door, got, got, err, row.want, row.want)
			}
			if err != nil {
				where := row.path
				if door == "Resolve" {
					where = "workload verdict: parameter " + twin[row.path]
				}
				if !strings.Contains(err.Error(), where) {
					t.Errorf("%s through %s: the refusal does not say where: %v", row.name, door, err)
				}
			}
		}
	}

	// Bounds are declared to be enforced: a schema whose range is one
	// value wide refuses the others, as the machine registry always has.
	fixed := workload.Definition{Name: "fixed", Params: []workload.Param{{Name: "n", Kind: workload.Int, Default: 4, Min: 4, Max: 4}}}
	if _, err := fixed.Resolve(map[string]any{"n": 7}, false); err == nil {
		t.Error("7 accepted for a parameter bounded [4, 4]")
	}
}

func mustLookup(t *testing.T, path string) param.Param {
	t.Helper()
	p, ok := param.Lookup(path)
	if !ok {
		t.Fatalf("%s is not a registered path", path)
	}
	return p
}

// TestConversionAllocations holds the two conversions a served request
// pays for — its workload parameters and each of its settings — to the
// map and the typed values they return: 2 and 3 allocations before the
// registries shared a kernel, 2 and 2 while param.Coerce keeps its raw
// argument from escaping.
func TestConversionAllocations(t *testing.T) {
	def, err := workload.Lookup("fft")
	if err != nil {
		t.Fatal(err)
	}
	raw := map[string]any{"logn": 8}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := def.Resolve(raw, false); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Resolve of %v allocates %v times, want at most 2", raw, n)
	}
	cfg, set := machine.Base(4, true), []param.Setting{{Path: "l2.transfer_ns", Value: "212.5"}}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := param.ApplySettings(cfg, set); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ApplySettings of %v allocates %v times, want at most 2", set, n)
	}
}
