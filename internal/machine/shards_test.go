package machine_test

import (
	"bytes"
	"reflect"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/memsys"
	"flashsim/internal/obs"
	"flashsim/internal/osmodel"
	"flashsim/internal/trace"
)

// shardMatrix is the shard counts every workload must reproduce the
// serial Result under: a proper divisor, a count that leaves uneven
// shards (3 over 8 nodes), and the fully sharded machine.
var shardMatrix = []int{2, 3, 8}

// shardConfig is the determinism matrix's base machine: 8 processors so
// every matrix shard count exercises a real partition, FlashLite with
// true timing so the memory system is the contended one.
func shardConfig(name string, os osmodel.Config) machine.Config {
	cfg := machine.Base(8, true)
	cfg.Name = name
	cfg.ClockMHz = 150
	cfg.OS = os
	cfg.Mem = machine.MemFlashLite
	cfg.FlashTiming = memsys.TrueTiming()
	return cfg
}

// TestShardDeterminismMatrix runs every workload in internal/apps at
// every matrix shard count and requires the full Result — timing,
// per-node counters, directory cases, metrics snapshot — to be
// bit-identical to the serial (Shards=1) run. This is the tentpole
// invariant of the windowed engine: shard count is an execution knob,
// never a model parameter. The test runs under -race in CI, so it also
// proves the parallel phases are data-race-free.
func TestShardDeterminismMatrix(t *testing.T) {
	workloads := []struct {
		name string
		prog func() emitter.Program
		mut  func(*machine.Config)
	}{
		{"fft", func() emitter.Program {
			return apps.FFT(apps.FFTOpts{LogN: 9, Procs: 8, TLBBlocked: true, Prefetch: true})
		}, nil},
		{"lu", func() emitter.Program {
			return apps.LU(apps.LUOpts{N: 48, Block: 16, Procs: 8})
		}, nil},
		{"ocean", func() emitter.Program {
			return apps.Ocean(apps.OceanOpts{N: 32, Grids: 4, Iters: 2, Procs: 8})
		}, nil},
		{"radix", func() emitter.Program {
			return apps.Radix(apps.RadixOpts{Keys: 1 << 12, Radix: 32, Procs: 8})
		}, nil},
		{"cachemgmt", func() emitter.Program {
			return apps.CacheMgmt(apps.CacheMgmtOpts{Lines: 64, Rounds: 2, Procs: 8})
		}, nil},
		// CPU-detail rungs: the suspend/resume protocol must be
		// shard-invariant on every core model, not just classic Mipsy.
		{"fft-mxs", func() emitter.Program {
			return apps.FFT(apps.FFTOpts{LogN: 9, Procs: 8, TLBBlocked: true})
		}, func(c *machine.Config) { c.CPU = machine.CPUMXS }},
		{"lu-mipsy-lat", func() emitter.Program {
			return apps.LU(apps.LUOpts{N: 48, Block: 16, Procs: 8})
		}, func(c *machine.Config) { c.ModelInstrLatency = true }},
		// Sampled execution: window gates and warm fast-forward run
		// through the same deferred-op machinery.
		{"fft-sampled", func() emitter.Program {
			return apps.FFT(apps.FFTOpts{LogN: 9, Procs: 8, TLBBlocked: true})
		}, func(c *machine.Config) {
			c.Sampling = machine.SamplingConfig{Enabled: true, Period: 2000, Window: 500, Warmup: 100}
		}},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			cfg := shardConfig("shard-matrix", osmodel.DefaultSimOS())
			if wl.mut != nil {
				wl.mut(&cfg)
			}
			cfg.Shards = 1
			want, err := machine.Run(cfg, wl.prog())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range shardMatrix {
				cfg.Shards = s
				got, err := machine.Run(cfg, wl.prog())
				if err != nil {
					t.Fatalf("shards=%d: %v", s, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d diverged from serial:\ngot:  %+v\nwant: %+v", s, summarize(got), summarize(want))
				}
			}
		})
	}
}

// TestShardDeterminismReplay covers the trace-driven mode: a trace
// captured at one shard count must replay bit-identically at every
// other.
func TestShardDeterminismReplay(t *testing.T) {
	cfg := shardConfig("shard-replay", osmodel.DefaultSimOS())
	prog := func() emitter.Program {
		return apps.FFT(apps.FFTOpts{LogN: 9, Procs: 8, TLBBlocked: true})
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Workload: "fft", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	if _, err := machine.RunCapture(cfg, prog(), tw); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	want, err := machine.RunReplay(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shardMatrix {
		cfg.Shards = s
		got, err := machine.RunReplay(cfg, img)
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replay shards=%d diverged from serial:\ngot:  %+v\nwant: %+v", s, summarize(got), summarize(want))
		}
	}
}

// TestShardMetricsByteStable pins the serialized observability
// artifacts across shard counts: a sharded run's metrics must produce
// byte-identical -metrics-out JSON and Prometheus exposition text to
// the serial run's. DeepEqual on Result already implies equal values;
// this additionally guards the serialization path (map ordering,
// shard-local counter merge order) against nondeterminism.
func TestShardMetricsByteStable(t *testing.T) {
	cfg := shardConfig("shard-metrics", osmodel.DefaultSimOS())
	prog := func() emitter.Program {
		return apps.FFT(apps.FFTOpts{LogN: 9, Procs: 8, TLBBlocked: true})
	}
	render := func(shards int) (jsonOut, promOut []byte) {
		cfg.Shards = shards
		res, err := machine.Run(cfg, prog())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		c := obs.NewCollector()
		c.Record(res)
		rep := c.Snapshot()
		jsonOut, err = rep.JSON()
		if err != nil {
			t.Fatalf("shards=%d: JSON: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := rep.WritePrometheus(&buf); err != nil {
			t.Fatalf("shards=%d: prometheus: %v", shards, err)
		}
		return jsonOut, buf.Bytes()
	}
	wantJSON, wantProm := render(1)
	for _, s := range shardMatrix {
		gotJSON, gotProm := render(s)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("shards=%d: metrics JSON diverged from serial:\ngot:\n%s\nwant:\n%s", s, gotJSON, wantJSON)
		}
		if !bytes.Equal(gotProm, wantProm) {
			t.Errorf("shards=%d: prometheus output diverged from serial:\ngot:\n%s\nwant:\n%s", s, gotProm, wantProm)
		}
	}
}

// TestShardsClampAndValidate pins the Shards knob's edge behavior:
// zero and negative mean serial, counts above Procs clamp.
func TestShardsClampAndValidate(t *testing.T) {
	cfg := shardConfig("shard-clamp", osmodel.DefaultSolo())
	prog := func() emitter.Program {
		return apps.CacheMgmt(apps.CacheMgmtOpts{Lines: 32, Rounds: 1, Procs: 8})
	}
	cfg.Shards = 0
	want, err := machine.Run(cfg, prog())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{-3, 1, 64} {
		cfg.Shards = s
		got, err := machine.Run(cfg, prog())
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d diverged from serial", s)
		}
	}
}

// summarize keeps divergence output readable: the headline counters,
// not the whole nested Result.
func summarize(r machine.Result) string {
	return r.String()
}
