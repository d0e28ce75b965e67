package param_test

import (
	"bytes"
	"strings"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/param"
)

func base() machine.Config { return machine.Base(4, true) }

func TestGetSetRoundTrip(t *testing.T) {
	cfg := base()
	cases := []struct {
		path string
		raw  string
		want any
	}{
		{"os.tlb.handler_cycles", "65", uint64(65)},
		{"l2.transfer_ns", "212.5", 212.5},
		{"l2.model_interface_occupancy", "true", true},
		{"cpu.kind", "mxs", "mxs"},
		{"os.kind", "solo", "solo"},
		{"mem.kind", "numa", "numa"},
		{"flash.bus_request_ns", "48", 48.0},
		{"mxs.model_address_interlocks", "true", true},
		{"procs", "16", int64(16)},
		{"magic.occupancy.ni_get_fwd", "17", uint64(17)},
		{"numa.hop_ns", "55", 55.0},
	}
	for _, c := range cases {
		if err := param.SetValue(&cfg, c.path, c.raw); err != nil {
			t.Fatalf("Set %s=%s: %v", c.path, c.raw, err)
		}
		got, err := param.Get(&cfg, c.path)
		if err != nil {
			t.Fatalf("Get %s: %v", c.path, err)
		}
		if got != c.want {
			t.Errorf("%s: got %v (%T), want %v (%T)", c.path, got, got, c.want, c.want)
		}
	}
	// The sets must have landed in the real struct fields.
	if cfg.OS.TLBHandlerCycles != 65 || cfg.L2TransferNS != 212.5 || !cfg.ModelL2InterfaceOccupancy {
		t.Errorf("registry writes did not reach the Config: %+v", cfg)
	}
	if cfg.CPU != machine.CPUMXS || cfg.Mem != machine.MemNUMA {
		t.Errorf("enum writes did not reach the Config")
	}
	if cfg.MagicTable == nil || cfg.MagicTable[magic.HNIGetFwd] != 17 {
		t.Errorf("magic write did not materialize the table")
	}
	if cfg.NUMA == nil || cfg.NUMA.HopNS != 55 {
		t.Errorf("numa write did not materialize the pointer")
	}
}

func TestSetErrors(t *testing.T) {
	cfg := base()
	for _, c := range []struct{ path, raw, wantErr string }{
		{"no.such.path", "1", "unknown path"},
		{"os.tlb.handler_cycles", "-5", "out of range"},
		{"os.tlb.handler_cycles", "1.5", "not an integer"},
		{"os.tlb.handler_cycles", "lots", "not a number"},
		{"cpu.kind", "r10000", "not one of"},
		{"l2.model_interface_occupancy", "maybe", "not a bool"},
		{"procs", "0", "out of range"},
	} {
		err := param.SetValue(&cfg, c.path, c.raw)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Set %s=%s: got %v, want error containing %q", c.path, c.raw, err, c.wantErr)
		}
	}
	if d := param.Diff(base(), cfg); len(d) != 0 {
		t.Errorf("failed sets must not modify the config: %v", d)
	}
}

func TestCanonicalIgnoresNameAndNilDefaults(t *testing.T) {
	a := base()
	b := base()
	b.Name = "something else entirely"
	if !bytes.Equal(canonical(a), canonical(b)) {
		t.Error("Name must not affect the canonical encoding")
	}

	// nil NUMA/MagicTable vs. explicitly materialized defaults are the
	// same simulator and must encode identically.
	nd := memsys.DefaultNUMAConfig(b.Procs)
	b.NUMA = &nd
	mt := magic.RTLOccupancies()
	b.MagicTable = &mt
	if !bytes.Equal(canonical(a), canonical(b)) {
		t.Error("nil and explicit-default pointer fields must encode identically")
	}

	// A real change must show.
	b.OS.TLBHandlerCycles = 65
	if bytes.Equal(canonical(a), canonical(b)) {
		t.Error("parameter change did not change the canonical encoding")
	}
}

func TestCanonicalCarriesSchemaVersion(t *testing.T) {
	if !bytes.Contains(canonical(base()), []byte(`"schema":`)) {
		t.Error("canonical encoding must carry the schema version tag")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := base()
	cfg.OS.TLBHandlerCycles = 65
	cfg.ModelL2InterfaceOccupancy = true
	cfg.FlashTiming.RouterNS = 31

	s := param.SnapshotOf(cfg)
	data := canonical(cfg)
	parsed, err := param.ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Schema != s.Schema {
		t.Errorf("schema: %d != %d", parsed.Schema, s.Schema)
	}
	restored, err := param.ApplySnapshot(base(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	if d := param.Diff(cfg, restored); len(d) != 0 {
		t.Errorf("snapshot round trip lost parameters: %v", d)
	}

	// Bare override files (no schema wrapper) also parse.
	bare, err := param.ParseSnapshot([]byte(`{"os.tlb.handler_cycles": 65}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := param.ApplySnapshot(base(), bare)
	if err != nil {
		t.Fatal(err)
	}
	if got.OS.TLBHandlerCycles != 65 {
		t.Errorf("bare snapshot did not apply: %d", got.OS.TLBHandlerCycles)
	}

	// Unknown paths and foreign schemas are rejected.
	if _, err := param.ApplySnapshot(base(), param.Snapshot{Params: map[string]any{"bogus": 1}}); err == nil {
		t.Error("unknown snapshot path must be rejected")
	}
	if _, err := param.ParseSnapshot([]byte(`{"schema": 999, "params": {}}`)); err == nil {
		t.Error("foreign schema version must be rejected")
	}
}

func TestDiffAndRender(t *testing.T) {
	a := base()
	b := a
	b.OS.TLBHandlerCycles = 65
	b.ModelL2InterfaceOccupancy = true
	deltas := param.Diff(a, b)
	if len(deltas) != 2 {
		t.Fatalf("want 2 deltas, got %v", deltas)
	}
	// Sorted by path.
	if deltas[0].Path != "l2.model_interface_occupancy" || deltas[1].Path != "os.tlb.handler_cycles" {
		t.Errorf("deltas out of order: %v", deltas)
	}
	applied, err := param.ApplyDeltas(a, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if d := param.Diff(b, applied); len(d) != 0 {
		t.Errorf("ApplyDeltas did not reproduce the target: %v", d)
	}
	text := param.RenderDeltas(deltas)
	for _, want := range []string{"os.tlb.handler_cycles", "-> 65 cycles", "false -> true"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered diff missing %q:\n%s", want, text)
		}
	}
	if param.RenderDeltas(nil) == "" {
		t.Error("empty diff must still render a placeholder")
	}
}

func TestDescribeListsEveryParam(t *testing.T) {
	text := param.Describe()
	for _, p := range param.All() {
		if !strings.Contains(text, p.Path) {
			t.Errorf("Describe() missing %s", p.Path)
		}
	}
	if !strings.Contains(text, "mipsy|mxs") {
		t.Error("Describe() should render enum values")
	}
}

func TestSettingValidate(t *testing.T) {
	s, err := param.ParseSetting("os.tlb.handler_cycles=65")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid setting rejected: %v", err)
	}
	if _, err := param.ParseSetting("justapath"); err == nil {
		t.Error("settings need an equals sign")
	}
	bad := param.Setting{Path: "os.tlb.handler_cycles", Value: "many"}
	if err := bad.Validate(); err == nil {
		t.Error("unparseable value must fail validation")
	}
}
