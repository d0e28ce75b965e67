package param_test

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"flashsim/internal/param"
)

// FuzzApplyDeltas throws arbitrary (path, JSON value) pairs at the
// registry's delta application and pins two properties: ApplyDeltas
// never panics, whatever the input; and when it *accepts* a numeric
// value, the value actually lands inside the parameter's declared
// [Min, Max] bounds — a delta can never smuggle an out-of-range knob
// into a config. A third rides along: the accepted config's canonical
// encoding equals the reference encoder's (canonical_test.go).
func FuzzApplyDeltas(f *testing.F) {
	f.Add("os.tlb.handler_cycles", []byte("65"))
	f.Add("os.tlb.handler_cycles", []byte("-1"))
	f.Add("l2.transfer_ns", []byte("212.5"))
	f.Add("l2.transfer_ns", []byte("1e308"))
	f.Add("l2.model_interface_occupancy", []byte("true"))
	f.Add("cpu.kind", []byte(`"mxs"`))
	f.Add("cpu.kind", []byte(`"z80"`))
	f.Add("no.such.param", []byte("1"))
	f.Add("flash.bus_request_ns", []byte("null"))
	f.Add("machine.procs", []byte("3.5"))
	f.Add("machine.procs", []byte(`{"nested":"object"}`))
	f.Add("l2.transfer_ns", []byte("NaN")) // not JSON: arrives as the text "NaN"
	f.Fuzz(func(t *testing.T, path string, raw []byte) {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			// Not JSON: feed the raw text as a string value instead of
			// discarding the input.
			v = string(raw)
		}
		cfg := base()
		out, err := param.ApplyDeltas(cfg, []param.Delta{{Path: path, After: v}})
		if err != nil {
			return // rejection is always acceptable; panicking is not
		}
		p, ok := param.Lookup(path)
		if !ok {
			t.Fatalf("ApplyDeltas accepted unregistered path %q", path)
		}
		got, gerr := param.Get(&out, path)
		if gerr != nil {
			t.Fatalf("accepted delta not readable back: %v", gerr)
		}
		// Whatever value landed, the direct canonical encoder writes it
		// as encoding/json would.
		requireCanonical(t, fmt.Sprintf("%s=%s", path, raw), out)
		var fv float64
		switch n := got.(type) {
		case int64:
			fv = float64(n)
		case uint64:
			fv = float64(n)
		case float64:
			fv = n
		default:
			return // bool/enum: membership was already enforced by Set
		}
		if math.IsNaN(fv) || fv < p.Min || fv > p.Max {
			t.Fatalf("param %s accepted %v outside bounds [%v, %v]", path, got, p.Min, p.Max)
		}
	})
}
