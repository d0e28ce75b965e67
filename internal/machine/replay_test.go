package machine_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
	"flashsim/internal/param"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

// replayConfig returns a small SimOS-Mipsy machine at the default rung
// of the detail ladder (classic Mipsy, unit latencies) — the
// configuration under which trace-driven replay must be exact.
func replayConfig(procs int) machine.Config {
	cfg := machine.Base(procs, true)
	cfg.Name = "test-simos-mipsy"
	cfg.CPU = machine.CPUMipsy
	cfg.ClockMHz = 150
	cfg.OS = osmodel.DefaultSimOS()
	cfg.Mem = machine.MemFlashLite
	cfg.FlashTiming = memsys.TrueTiming()
	return cfg
}

// replayKernels is the SPLASH-2 suite at sizes small enough for a test
// but big enough to cross chunk boundaries, take TLB misses, and
// exercise locks, barriers, and prefetches. (The CACHE-op kernel at
// this size is the registry's quick cachemgmt, which registryPrograms
// supplies.)
func replayKernels(procs int) []emitter.Program {
	return []emitter.Program{
		apps.FFT(apps.FFTOpts{LogN: 10, Procs: procs, Prefetch: true}),
		apps.LU(apps.LUOpts{N: 64, Procs: procs}),
		apps.Ocean(apps.OceanOpts{N: 34, Grids: 4, Iters: 2, Procs: procs}),
		apps.Radix(apps.RadixOpts{Keys: 8 << 10, Radix: 32, Procs: procs, Verify: true}),
	}
}

// captureInto runs prog under cfg with a tap into a fresh in-memory
// container and returns the result and the sealed container bytes.
func captureInto(t testing.TB, cfg machine.Config, prog emitter.Program) (machine.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Workload: prog.FullName(), Threads: prog.Threads})
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.RunCapture(cfg, prog, tw)
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// sampledPin is the Result of one sampled replay: its execution time
// and the FNV-64a of its %+v rendering.
type sampledPin struct {
	exec   int64
	digest uint64
}

// sampledPins holds, per registry workload at 2p quick sizes, the
// default-warm and sparse-cold (period 100k, cold state) sampled
// replays of its capture, recorded at the commit before the compact
// action layout, when sampled windows ran classic Mipsy over the
// expanded stream. They now pin that the replay core's window budget
// and the fast-forward over its cursor reproduce that path.
var sampledPins = map[string][2]sampledPin{
	"barnes/n=256 steps=2 theta=50%":                   {{1924058, 0xc36aff616a4457b2}, {1847138, 0xd32801f6e4496f8d}},
	"cachemgmt/lines=64 rounds=2":                      {{45131, 0x9e5ad1cf1553b053}, {45131, 0x9e5ad1cf1553b053}},
	"fft/tlb-blocked n=4096":                           {{1155441, 0xb8175c4cda3194a7}, {874555, 0x8ee27d92d341b1db}},
	"gups/2^14 words updates=4096 hot=25%":             {{1506533, 0xf62df0e8d743a7e}, {149345, 0x6e5bbb69c018c64}},
	"lu/n=96 b=16":                                     {{3886550, 0xb4dfe410ed64d7df}, {3931006, 0xfe5ceb7026189588}},
	"ocean/n=64 grids=8 iters=2":                       {{2735675, 0xaf751b9f279dd650}, {2325899, 0x1e14b7d7effaf03a}},
	"oltp/txns=192 rows=4096 ops=8 r/w=80/20 skew=60%": {{1468669, 0x84a1ff19b0f2df9a}, {496868, 0xeb427b6eab182e09}},
	"radix/radix=256 n=32768":                          {{7232812, 0xf03a3f22227c677c}, {7770689, 0x6f9895b242da44e3}},
	"snbench-loads/remote-clean":                       {{310681, 0x758271dd477a1a74}, {310681, 0x758271dd477a1a74}},
	"snbench-restart/lines=1024":                       {{405138, 0x299482421690d742}, {405138, 0x299482421690d742}},
	"snbench-tlb/pages=128 fit=32":                     {{86448, 0xfaa56a6bffdf79c9}, {86448, 0xfaa56a6bffdf79c9}},
	"webserve/req=48 pages=2 sys=6 docs=32 think=64":   {{1632953, 0x43588062e0a44fbb}, {1462361, 0xe0b806996b21185}},
}

// TestCaptureReplayBitIdentical pins the tentpole exactness claim: for
// every kernel and every registry workload, at the default
// configuration, capture→replay reproduces the execution-driven Result
// — including the full memory-system metrics, per-processor counters,
// and barrier release times — bit for bit. It also pins that capturing
// is unobservable: the tapped run's Result equals an untapped run's.
// Registry workloads are also replayed sampled, against sampledPins.
func TestCaptureReplayBitIdentical(t *testing.T) {
	const procs = 2
	for _, prog := range append(replayKernels(procs), registryPrograms(t, procs)...) {
		prog := prog
		t.Run(prog.FullName(), func(t *testing.T) {
			t.Parallel()
			cfg := replayConfig(prog.Threads)
			exec, err := machine.Run(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			captured, data := captureInto(t, cfg, prog)
			if !reflect.DeepEqual(captured, exec) {
				t.Fatalf("capture perturbed the run:\nexec:     %+v\ncaptured: %+v", exec, captured)
			}
			tr, err := trace.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			img, err := machine.PrepareReplay(tr)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := machine.RunReplay(cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replay, exec) {
				t.Fatalf("replay diverged from execution-driven run:\nexec:   %+v\nreplay: %+v", exec, replay)
			}
			pins, ok := sampledPins[prog.FullName()]
			if !ok {
				return // a replayKernels size, not a registry workload
			}
			warm := cfg
			warm.Sampling = machine.DefaultSampling()
			cold := warm
			cold.Sampling.Period, cold.Sampling.ColdState = 100_000, true
			for i, c := range []machine.Config{warm, cold} {
				res, err := machine.RunReplay(c, img)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				fmt.Fprintf(h, "%+v", res)
				if got := (sampledPin{int64(res.Exec), h.Sum64()}); got != pins[i] {
					t.Fatalf("sampled replay %d diverged from its recorded Result: got %#v, want %#v", i, got, pins[i])
				}
			}
		})
	}
}

// TestReplayImageIsReusable pins decode-once/replay-many: one image
// replayed twice (including concurrently-built machines) yields the
// same Result both times.
func TestReplayImageIsReusable(t *testing.T) {
	const procs = 2
	cfg := replayConfig(procs)
	prog := apps.FFT(apps.FFTOpts{LogN: 10, Procs: procs})
	_, data := captureInto(t, cfg, prog)
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	first, err := machine.RunReplay(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	second, err := machine.RunReplay(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("image reuse diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestReplayTracksMemsysParameter pins that a trace is a property of the
// workload, not of the memory system that captured it: captured once
// under SimOS-Mipsy 150, it replays bit-identically to an
// execution-driven run at every other setting of a memory-system
// parameter (router_ns=0 puts zero-duration reservations in play, as
// in TestContentionResultsPinned). The detailed-CPU rungs, where replay
// is an approximation, are `validate trace`'s non-exact rows.
func TestReplayTracksMemsysParameter(t *testing.T) {
	for _, tc := range []struct {
		app   string
		procs int
	}{{"fft", 2}, {"ocean", 4}} {
		tc := tc
		t.Run(fmt.Sprintf("%s/%dp", tc.app, tc.procs), func(t *testing.T) {
			t.Parallel()
			def, err := workload.Lookup(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			prog := quickProgram(t, def, tc.procs)
			base := core.SimOSMipsy(tc.procs, 150, true)
			_, data := captureInto(t, base, prog)
			tr, err := trace.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			img, err := machine.PrepareReplay(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []param.Setting{
				{Path: "flash.inbox_ns", Value: "10"},
				{Path: "flash.inbox_ns", Value: "67.5"},
				{Path: "flash.inbox_ns", Value: "125"},
				{Path: "flash.router_ns", Value: "0"},
				{Path: "flash.router_ns", Value: "25"},
				{Path: "flash.router_ns", Value: "50"},
			} {
				cfg, err := param.ApplySettings(base, []param.Setting{s})
				if err != nil {
					t.Fatal(err)
				}
				exec, err := machine.Run(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				replay, err := machine.RunReplay(cfg, img)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(replay, exec) {
					t.Errorf("%s=%s: replay of the base capture diverged from the run:\nexec:   %+v\nreplay: %+v", s.Path, s.Value, exec, replay)
				}
			}
		})
	}
}

// TestReplayThreadMismatchFails pins the procs guard.
func TestReplayThreadMismatchFails(t *testing.T) {
	cfg := replayConfig(2)
	prog := apps.FFT(apps.FFTOpts{LogN: 10, Procs: 2})
	_, data := captureInto(t, cfg, prog)
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := replayConfig(4)
	if _, err := machine.RunReplay(bad, img); err == nil {
		t.Fatal("replay with mismatched processor count should fail")
	}
}
