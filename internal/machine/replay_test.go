package machine_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/cpu/mipsy"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
	"flashsim/internal/param"
	"flashsim/internal/sim"
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
// and the FNV-64a of its %#v rendering, which spells out every field
// (Sampling, Metrics, barrier release times); %+v would print only
// Result.String's summary.
type sampledPin struct {
	exec   int64
	digest uint64
}

// sampledPins holds, per registry workload at 2p quick sizes, the
// default-warm and sparse-cold (period 100k, cold state) sampled
// replays of its capture. The exec times date from the commit before
// the compact action layout, when sampled windows ran classic Mipsy
// over the expanded stream; the digests were re-recorded over the
// whole Result at the commit before the per-thread action counts.
// They pin that the replay core's window budget and the fast-forward
// over its cursor reproduce that path.
var sampledPins = map[string][2]sampledPin{
	"barnes/n=256 steps=2 theta=50%":                   {{1924058, 0x27894c90c8c70a39}, {1847138, 0x785f1e3b3df23af3}},
	"cachemgmt/lines=64 rounds=2":                      {{45131, 0x7979ad97517b40bd}, {45131, 0x7979ad97517b40bd}},
	"fft/tlb-blocked n=4096":                           {{1155441, 0xac416aa6060b8609}, {874555, 0x1843aec27bede795}},
	"gups/2^14 words updates=4096 hot=25%":             {{1506533, 0x277bf00dfdf96050}, {149345, 0x681b4eb3168aa64f}},
	"lu/n=96 b=16":                                     {{3886550, 0xb1ee12c73092d2d6}, {3931006, 0x994f055f083b6e2a}},
	"ocean/n=64 grids=8 iters=2":                       {{2735675, 0xeab90ec5ced94966}, {2325899, 0x3a33c6c07acc452a}},
	"oltp/txns=192 rows=4096 ops=8 r/w=80/20 skew=60%": {{1468669, 0x662612343540f060}, {496868, 0x430a18eb93fda4c6}},
	"radix/radix=256 n=32768":                          {{7232812, 0x9fbc028cc4143127}, {7770689, 0xa8f540ea43ac9d8a}},
	"snbench-loads/remote-clean":                       {{310681, 0xa3c5bd7a5cab38ff}, {310681, 0xa3c5bd7a5cab38ff}},
	"snbench-restart/lines=1024":                       {{405138, 0x6f4a8cff6524cc41}, {405138, 0x6f4a8cff6524cc41}},
	"snbench-tlb/pages=128 fit=32":                     {{86448, 0xc3e33993c8e2bf9e}, {86448, 0xc3e33993c8e2bf9e}},
	"webserve/req=48 pages=2 sys=6 docs=32 think=64":   {{1632953, 0xd5236eae60c72c46}, {1462361, 0x12acf05a06a61330}},
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
				fmt.Fprintf(h, "%#v", res)
				if got := (sampledPin{int64(res.Exec), h.Sum64()}); got != pins[i] {
					t.Fatalf("sampled replay %d diverged from its recorded Result: got %#v, want %#v", i, got, pins[i])
				}
			}
		})
	}
}

// TestSplitRunsAreExact pins that splitting a long compute run is exact:
// with runs split at k ∈ {1, 2, 3, 7} instructions, every capture of
// TestCaptureReplayBitIdentical replays plain, default-sampled and
// sparse-cold-sampled to the Result (%#v for %#v) of its image built at
// the default split length. The images are prepared before the parallel
// replays, since the split length is package state PrepareReplay reads.
func TestSplitRunsAreExact(t *testing.T) {
	if machine.ActionSize != 16 {
		t.Fatalf("a replay action takes %d bytes, want 16", machine.ActionSize)
	}
	const procs = 2
	progs := append(replayKernels(procs), registryPrograms(t, procs)...)
	traces := make([]*trace.Trace, len(progs))
	t.Run("capture", func(t *testing.T) {
		for i, prog := range progs {
			t.Run(prog.FullName(), func(t *testing.T) {
				t.Parallel()
				_, data := captureInto(t, replayConfig(prog.Threads), prog)
				tr, err := trace.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				traces[i] = tr
			})
		}
	})
	if t.Failed() {
		return
	}
	splits := []uint64{1, 2, 3, 7}
	images := make([][]*machine.ReplayImage, len(progs))
	var whole, split int
	for i, tr := range traces {
		for _, k := range append([]uint64{0}, splits...) { // 0: the default length
			restore := func() {}
			if k > 0 {
				restore = machine.SetMaxActionSkip(k)
			}
			img, err := machine.PrepareReplay(tr)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			images[i] = append(images[i], img)
		}
		whole, split = whole+actionCount(images[i][0]), split+actionCount(images[i][1])
	}
	if split <= whole {
		t.Fatalf("splitting at 1 split no run: %d actions, %d unsplit", split, whole)
	}
	for i, prog := range progs {
		t.Run(prog.FullName(), func(t *testing.T) {
			t.Parallel()
			plain := replayConfig(prog.Threads)
			warm := plain
			warm.Sampling = machine.DefaultSampling()
			cold := warm
			cold.Sampling.Period, cold.Sampling.ColdState = 100_000, true
			for name, cfg := range map[string]machine.Config{"plain": plain, "warm": warm, "sparse-cold": cold} {
				want := fmt.Sprintf("%#v", replayOf(t, cfg, images[i][0]))
				for j, k := range splits {
					if got := fmt.Sprintf("%#v", replayOf(t, cfg, images[i][j+1])); got != want {
						t.Errorf("%s replay with runs split at %d differs from the default image's:\n%s\nwant\n%s", name, k, got, want)
					}
				}
			}
		})
	}
}

// actionCount is the number of actions img holds over all threads.
func actionCount(img *machine.ReplayImage) int {
	n := 0
	for i := 0; i < img.Threads(); i++ {
		acts, _ := img.Actions(i)
		n += len(acts)
	}
	return n
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

// deferPort hits in one cycle, except that an address with bit 20 set
// goes to memory and one with bit 21 set is deferred, as the windowed
// engine's port defers a miss or a faulting page (a CACHE op included).
type deferPort struct{ clock sim.Clock }

func (p deferPort) access(t sim.Ticks, addr uint64) cpu.MemInfo {
	switch {
	case addr&(1<<21) != 0:
		return cpu.MemInfo{Flags: cpu.FlagPending}
	case addr&(1<<20) != 0:
		return cpu.MemInfo{Done: t + p.clock.Cycles(40), IssuedAt: t + 1, Flags: cpu.FlagWentToMemory}
	}
	return cpu.MemInfo{Done: t + p.clock.Cycles(1), L1Hit: true}
}
func (p deferPort) Load(t sim.Ticks, addr uint64, _ uint32) cpu.MemInfo  { return p.access(t, addr) }
func (p deferPort) Store(t sim.Ticks, addr uint64, _ uint32) cpu.MemInfo { return p.access(t, addr) }
func (p deferPort) Prefetch(sim.Ticks, uint64)                           {}
func (p deferPort) CacheOp(t sim.Ticks, addr uint64, _ uint32) cpu.MemInfo {
	return p.access(t, addr)
}
func (p deferPort) SyscallCost(uint32) uint32 { return 7 }

// TestReplayCoreMatchesMipsy: over the same instructions the replay
// core, reading them collapsed, yields what classic Mipsy yields,
// outcome for outcome, when the port answers at once, sends a load and
// a store to memory, and defers a load, a store and a CACHE op that the
// machine delivers 90 cycles later.
func TestReplayCoreMatchesMipsy(t *testing.T) {
	const far, deferred = 1 << 20, 1 << 21
	ins := []isa.Instr{
		{Op: isa.IntALU}, {Op: isa.IntALU}, {Op: isa.Load, Addr: 0x100},
		{Op: isa.Store, Addr: 0x108}, {Op: isa.Barrier, Aux: 3},
		{Op: isa.FPMul}, {Op: isa.Load, Addr: far | 0x40},
		{Op: isa.IntMul}, {Op: isa.IntMul}, {Op: isa.IntMul}, {Op: isa.IntMul}, {Op: isa.IntMul}, {Op: isa.IntMul},
		{Op: isa.Load, Addr: deferred | 0x80}, {Op: isa.Prefetch, Addr: 0x200},
		{Op: isa.CacheOp, Addr: 0x200, Aux: 0x15}, {Op: isa.CacheOp, Addr: deferred | 0x200, Aux: 0x15},
		{Op: isa.Store, Addr: deferred | 0x88}, {Op: isa.Lock, Aux: 7}, {Op: isa.Syscall, Aux: 2},
		{Op: isa.Branch}, {Op: isa.Unlock, Aux: 7}, {Op: isa.Store, Addr: far | 0x10}, {Op: isa.Nop},
	}
	clock := sim.Clock150
	port := deferPort{clock: clock}
	transcript := func(core cpu.CPU) []cpu.Outcome {
		var outs []cpu.Outcome
		var now sim.Ticks
		for len(outs) < 1000 {
			out := core.Run(now)
			outs = append(outs, out)
			switch now = out.Time; out.Kind {
			case cpu.Finished:
				if core.Instructions() != uint64(len(ins)) {
					t.Fatalf("finished after %d of %d instructions", core.Instructions(), len(ins))
				}
				return outs
			case cpu.Blocked:
				now = core.Deliver(cpu.MemInfo{Done: now + clock.Cycles(90), IssuedAt: now + clock.Cycles(3), Flags: cpu.FlagWentToMemory})
				outs = append(outs, cpu.Outcome{Kind: cpu.Yield, Time: now})
			}
		}
		t.Fatal("core did not finish")
		return nil
	}
	want := transcript(mipsy.New(mipsy.Config{Clock: clock, Quantum: 5}, &sliceStream{ins: ins}, port))
	if got := transcript(machine.ReplayCore(clock, 5, ins, port)); !reflect.DeepEqual(got, want) {
		t.Errorf("replay outcomes\n got %+v\nwant %+v", got, want)
	}
	blocked := 0
	for _, out := range want {
		if out.Kind == cpu.Blocked {
			blocked++
		}
	}
	if blocked != 3 {
		t.Errorf("%d accesses deferred, want 3", blocked)
	}
}

// sliceStream is a cpu.Stream over ins.
type sliceStream struct{ ins []isa.Instr }

func (s *sliceStream) Next() (isa.Instr, bool) {
	if len(s.ins) == 0 {
		return isa.Instr{}, false
	}
	in := s.ins[0]
	s.ins = s.ins[1:]
	return in, true
}
