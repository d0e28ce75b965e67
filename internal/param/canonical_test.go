package param_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/param"
)

// refCanonical is Canonical as it was before the direct encoder: the
// snapshot map through encoding/json (boxed values, reflection, sorted
// keys). Every memo store and trace container on disk is keyed on these
// bytes, so the direct encoder must reproduce them exactly.
func refCanonical(cfg machine.Config) []byte {
	data, err := json.Marshal(param.SnapshotOf(cfg))
	if err != nil {
		// Registered values are plain scalars; a failure here is a
		// programming error in a registration, not a runtime condition.
		panic(fmt.Sprintf("param: canonical encoding failed: %v", err))
	}
	return data
}

// requireCanonical fails unless cfg encodes to the reference's bytes.
func requireCanonical(t testing.TB, what string, cfg machine.Config) {
	t.Helper()
	if got, want := param.Canonical(cfg), refCanonical(cfg); !bytes.Equal(got, want) {
		t.Fatalf("%s: canonical encoding differs from json.Marshal(SnapshotOf(cfg))\n got %s\nwant %s", what, got, want)
	}
}

// TestCanonicalMatchesReferenceOnNamedConfigs covers every
// configuration the study names, at each clock and cache geometry, with
// the pointer fields nil and materialized.
func TestCanonicalMatchesReferenceOnNamedConfigs(t *testing.T) {
	for _, procs := range []int{1, 4, 32} {
		for _, scaled := range []bool{true, false} {
			requireCanonical(t, fmt.Sprintf("hw.Config(%d,%v)", procs, scaled), hw.Config(procs, scaled))
			for _, name := range core.ConfigNames {
				for _, mhz := range []int{150, 225, 300} {
					cfg, err := core.ConfigByName(name, procs, mhz, scaled)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s procs=%d mhz=%d scaled=%v", name, procs, mhz, scaled)
					requireCanonical(t, what, cfg)
					requireCanonical(t, what+" numa", core.WithNUMA(cfg))

					// nil and explicit-default pointer fields are one
					// simulator: same bytes from both encoders.
					nd, mt := memsys.DefaultNUMAConfig(cfg.Procs), magic.RTLOccupancies()
					explicit := cfg
					explicit.NUMA, explicit.MagicTable = &nd, &mt
					requireCanonical(t, what+" explicit defaults", explicit)
					if !bytes.Equal(param.Canonical(cfg), param.Canonical(explicit)) {
						t.Fatalf("%s: nil and explicit-default NUMA/MagicTable encode differently", what)
					}
				}
			}
		}
	}
}

// configField resolves a Param.Field path ("OS.TLBHandlerCycles",
// "NUMA.HopNS", "MagicTable[3]") to the settable field inside cfg,
// whose NUMA and MagicTable pointers must be non-nil.
func configField(t *testing.T, cfg *machine.Config, path string) reflect.Value {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem()
	for _, part := range strings.Split(path, ".") {
		name, index, indexed := strings.Cut(part, "[")
		v = v.FieldByName(name)
		if !v.IsValid() {
			t.Fatalf("no field %s in machine.Config", path)
		}
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if indexed {
			i, err := strconv.Atoi(strings.TrimSuffix(index, "]"))
			if err != nil {
				t.Fatalf("field path %s: %v", path, err)
			}
			v = v.Index(i)
		}
	}
	return v
}

// TestCanonicalMatchesReferenceAtBoundaries writes boundary values into
// every registered field directly, past Set's bounds: the encoder must
// agree with encoding/json on whatever a Config can hold, in particular
// on where floats switch to exponent form (below 1e-6, from 1e21) and
// how the exponent is trimmed (e-07 is written e-7, e-10 and e-324 are
// not touched).
func TestCanonicalMatchesReferenceAtBoundaries(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 9.999999e-7, 1e-6, 1e-10, 5e-324, 0.1, 212.5,
		999999.5, 123456789.125, 1e20, 9.99999999e20, 1e21, -1e21, 1.5e300, math.MaxFloat64,
	}
	uints := []uint64{0, 1, 65, math.MaxUint32, math.MaxUint64}
	ints := []int64{0, 1, -1, math.MaxInt32, math.MinInt64, math.MaxInt64}

	cfg := core.SimOSMipsy(4, 150, true)
	nd, mt := memsys.DefaultNUMAConfig(cfg.Procs), magic.RTLOccupancies()
	cfg.NUMA, cfg.MagicTable = &nd, &mt
	for _, p := range param.All() {
		f := configField(t, &cfg, p.Field)
		saved := reflect.New(f.Type()).Elem()
		saved.Set(f)
		switch p.Kind {
		case param.Bool:
			for _, b := range []bool{true, false} {
				f.SetBool(b)
				requireCanonical(t, fmt.Sprintf("%s=%v", p.Path, b), cfg)
			}
		case param.Float:
			for _, x := range floats {
				f.SetFloat(x)
				requireCanonical(t, fmt.Sprintf("%s=%v", p.Path, x), cfg)
			}
		case param.Uint:
			for _, u := range uints {
				f.SetUint(u) // a uint32 field keeps the low half: still a boundary
				requireCanonical(t, fmt.Sprintf("%s=%d", p.Path, u), cfg)
			}
		case param.Int:
			for _, i := range ints {
				f.SetInt(i)
				requireCanonical(t, fmt.Sprintf("%s=%d", p.Path, i), cfg)
			}
		case param.Enum:
			for _, s := range p.Values {
				if err := param.SetValue(&cfg, p.Path, s); err != nil {
					t.Fatal(err)
				}
				requireCanonical(t, p.Path+"="+s, cfg)
			}
			f.SetUint(200) // a constant no model implements
			requireCanonical(t, p.Path+"=200", cfg)
		}
		f.Set(saved)
	}
}

// TestCanonicalRefusesNonFinite: NaN and the infinities have no JSON
// form. json.Marshal returned an error and Canonical panicked on it;
// the direct encoder must not write a key for such a config either.
func TestCanonicalRefusesNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := base()
		cfg.L2TransferNS = x
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Canonical encoded l2.transfer_ns=%v", x)
				}
			}()
			param.Canonical(cfg)
		}()
	}
}

// TestCanonicalAllocates pins what a memo hit pays for its key: the
// output buffer, with one regrowth allowed.
func TestCanonicalAllocates(t *testing.T) {
	cfg := core.SimOSMipsy(1, 150, true)
	if n := testing.AllocsPerRun(100, func() { param.Canonical(cfg) }); n > 2 {
		t.Errorf("Canonical: %v allocs per call, want at most 2", n)
	}
}

var canonicalSink []byte

func BenchmarkCanonical(b *testing.B) {
	cfg := core.SimOSMipsy(1, 150, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonicalSink = param.Canonical(cfg)
	}
}
