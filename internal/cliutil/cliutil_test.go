package cliutil_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flashsim/internal/cliutil"
	"flashsim/internal/machine"
)

func parse(t *testing.T, args ...string) (*cliutil.Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := cliutil.RegisterOn(fs)
	f.RegisterOverridesOn(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return f, f.Finish()
}

func TestSetOverridesApply(t *testing.T) {
	f, err := parse(t, "-set", "os.tlb.handler_cycles=65", "-set", "l2.transfer_ns=200")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Apply(machine.Base(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OS.TLBHandlerCycles != 65 || cfg.L2TransferNS != 200 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
}

func TestInvalidSetFailsAtFinish(t *testing.T) {
	if _, err := parse(t, "-set", "no.such.knob=1"); err == nil {
		t.Error("unknown path must fail Finish")
	}
	if _, err := parse(t, "-set", "os.tlb.handler_cycles=banana"); err == nil {
		t.Error("unparseable value must fail Finish")
	}
	if _, err := parse(t, "-set", "procs"); err == nil {
		t.Error("missing = must fail Finish")
	}
}

func TestConfigFileAndSetCompose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overrides.json")
	if err := os.WriteFile(path, []byte(`{"os.tlb.handler_cycles": 65, "cpu.clock_mhz": 225}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := parse(t, "-config", path, "-set", "cpu.clock_mhz=300")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Apply(machine.Base(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OS.TLBHandlerCycles != 65 {
		t.Errorf("file override lost: %d", cfg.OS.TLBHandlerCycles)
	}
	if cfg.ClockMHz != 300 {
		t.Errorf("-set must win over -config: %d", cfg.ClockMHz)
	}
}

func TestBadConfigFileFailsAtFinish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"made.up.path": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parse(t, "-config", path); err == nil {
		t.Error("config file with unknown paths must fail Finish")
	}
	if _, err := parse(t, "-config", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing config file must fail Finish")
	}
}

func TestNoOverridesIsIdentity(t *testing.T) {
	f, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	in := machine.Base(4, true)
	out, err := f.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Error("Apply without overrides must be the identity")
	}
}

func TestPoolConstruction(t *testing.T) {
	f, err := parse(t, "-jobs", "2", "-cache-dir", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool, store, err := f.Pool()
	if err != nil {
		t.Fatal(err)
	}
	if pool == nil || store == nil || store.Dir() == "" {
		t.Error("pool/store not built from flags")
	}
}
