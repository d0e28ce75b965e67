package param_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/param"
)

// excludedFields lists every leaf field reachable from machine.Config
// that is deliberately NOT a registered parameter, with the reason. A
// new Config field that is neither registered nor listed here fails
// TestEveryConfigFieldIsRegisteredOrExcluded, so no knob can silently
// bypass the registry.
var excludedFields = map[string]string{
	"Name":           "display label, not a parameter; excluded from fingerprints on purpose",
	"L1D.Name":       "display label on the cache geometry",
	"L2.Name":        "display label on the cache geometry",
	"NUMA.Nodes":     "derived: machine.New forces it to Procs",
	"CheckCoherence": "verification flag: cannot change results, so it must not change fingerprints",
	"Shards":         "deprecated and ignored: the frozen benchmark still writes it",
}

func init() {
	for _, f := range []string{"Enabled", "Period", "Window", "Warmup", "Phase", "ColdState"} {
		excludedFields["Sampling."+f] = "reached only from Go: the frozen benchmark's sampled replays (ROADMAP 1(b))"
	}
}

// leafFields walks a struct type and returns every leaf field path.
// Pointers are followed by type (nil-ness is a canonicalization concern
// the registry handles, not a structural one); arrays contribute one
// path per index.
func leafFields(t reflect.Type, prefix string, out *[]string) {
	switch t.Kind() {
	case reflect.Pointer:
		leafFields(t.Elem(), prefix, out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			p := f.Name
			if prefix != "" {
				p = prefix + "." + f.Name
			}
			leafFields(f.Type, p, out)
		}
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			leafFields(t.Elem(), fmt.Sprintf("%s[%d]", prefix, i), out)
		}
	default:
		*out = append(*out, prefix)
	}
}

func TestEveryConfigFieldIsRegisteredOrExcluded(t *testing.T) {
	var leaves []string
	leafFields(reflect.TypeOf(machine.Config{}), "", &leaves)
	if len(leaves) < 30 {
		t.Fatalf("walk found only %d leaves; the reflection walk is broken", len(leaves))
	}

	registered := make(map[string]string) // Go field path -> registry path
	for _, p := range param.All() {
		if p.Field == "" {
			t.Errorf("param %s has no Field annotation", p.Path)
			continue
		}
		if prev, dup := registered[p.Field]; dup {
			t.Errorf("field %s is covered by both %s and %s", p.Field, prev, p.Path)
		}
		registered[p.Field] = p.Path
	}

	seen := make(map[string]bool)
	for _, leaf := range leaves {
		seen[leaf] = true
		_, isReg := registered[leaf]
		_, isExcl := excludedFields[leaf]
		switch {
		case isReg && isExcl:
			t.Errorf("field %s is both registered and excluded", leaf)
		case !isReg && !isExcl:
			t.Errorf("machine.Config field %s is neither registered in internal/param nor on the exclusion list — new knobs must go through the registry", leaf)
		}
	}
	// The reverse direction catches renames: a registration or
	// exclusion pointing at a field that no longer exists.
	for field, path := range registered {
		if !seen[field] {
			t.Errorf("param %s claims field %s, which does not exist in machine.Config", path, field)
		}
	}
	for field := range excludedFields {
		if !seen[field] {
			t.Errorf("exclusion list names field %s, which does not exist in machine.Config", field)
		}
	}
}

// TestDeficiencyTableKnobsResolve pins the DESIGN.md §3 deficiency
// table to registry paths: every knob the paper's error taxonomy names
// must resolve by dotted path and carry its class.
func TestDeficiencyTableKnobsResolve(t *testing.T) {
	knobs := []string{
		"cpu.model_instr_latency",      // Mipsy: no instruction latencies
		"os.tlb.handler_cycles",        // TLB miss cost 25/35 vs real 65
		"l2.model_interface_occupancy", // no secondary-cache interface occupancy
		"l2.transfer_ns",               // ... and its fitted occupancy
		"mxs.model_address_interlocks", // MXS: no address interlocks
		"mxs.bug_fast_issue",           // MXS fast-issue pipeline bug
		"mxs.bug_cache_op_stall",       // MXS CACHE-instruction stall bug
		"os.kind",                      // Solo: no TLB / naive allocation
		"flash.bus_request_ns",         // untuned FlashLite timing
		"flash.router_ns",
		"flash.inbox_ns",
		"flash.outbox_ns",
		"flash.intervention_ns",
		"mem.kind", // NUMA: no occupancy/contention
	}
	cfg := machine.Base(4, true)
	for _, path := range knobs {
		p, ok := param.Lookup(path)
		if !ok {
			t.Errorf("deficiency-table knob %s is not registered", path)
			continue
		}
		if p.Class == "" {
			t.Errorf("deficiency-table knob %s has no error class", path)
		}
		if _, err := param.Get(&cfg, path); err != nil {
			t.Errorf("Get(%s): %v", path, err)
		}
	}
}

// TestErrorClassStrings: the classes print as the experiment rows, the
// docs and CI's greps spell them.
func TestErrorClassStrings(t *testing.T) {
	for class, want := range map[param.ErrorClass]string{
		param.Bug: "bug", param.Omission: "omission", param.LackOfDetail: "lack-of-detail",
	} {
		if string(class) != want {
			t.Errorf("class %q, want %q", class, want)
		}
	}
}

// TestClassColumnIsForFidelityPaths: what describes the machine or the
// run, not a modeling choice, carries no class.
func TestClassColumnIsForFidelityPaths(t *testing.T) {
	classed := 0
	for _, p := range param.All() {
		if p.Class != "" {
			classed++
		}
		for _, prefix := range []string{"procs", "quantum", "seed", "jitter_pct", "l1d.", "l2.size", "l2.line", "l2.ways"} {
			if strings.HasPrefix(p.Path, prefix) && p.Class != "" {
				t.Errorf("%s is classed %s", p.Path, p.Class)
			}
		}
	}
	if classed < 20 {
		t.Errorf("only %d classed paths", classed)
	}
}

// TestNoPathAcceptsNaN: NaN compares false against every bound, and a
// NaN that reached a Config would panic in AppendCanonical on the way to
// the fingerprint. No path takes it, as text or as a value, and a refusal
// leaves the config as it was.
func TestNoPathAcceptsNaN(t *testing.T) {
	floats := 0
	for _, p := range param.All() {
		if p.Kind == param.Float {
			floats++
		}
		cfg := machine.Base(4, true)
		for _, text := range []string{"NaN", "nan", "+Inf", "-Inf"} {
			if err := param.SetValue(&cfg, p.Path, text); err == nil || !strings.Contains(err.Error(), p.Path) {
				t.Errorf("%s=%s: err %v, want a refusal naming the path", p.Path, text, err)
			}
		}
		for _, v := range []any{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := param.SetValue(&cfg, p.Path, v); err == nil {
				t.Errorf("%s: value %v accepted", p.Path, v)
			}
		}
		if d := param.Diff(machine.Base(4, true), cfg); len(d) != 0 {
			t.Errorf("%s: a refused value changed the config: %v", p.Path, d)
		}
	}
	if floats < 10 {
		t.Errorf("the walk met only %d float paths", floats)
	}
}
