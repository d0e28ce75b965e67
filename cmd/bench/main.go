// Command bench runs the repo's performance-trajectory suite — the
// event-queue and emitter microbenchmarks plus quick-scale simulator
// and figure benchmarks — and writes the results as a BENCH_<date>.json
// record. Committing one such file per perf-relevant change turns the
// repo history into a machine-checkable performance trajectory: any
// future PR's speed or allocation claim can be diffed against the
// previous record instead of taken on faith.
//
// Usage:
//
//	bench                      # writes BENCH_<today>.json
//	bench -out BENCH_x.json    # explicit output path
//	bench -match queue         # run only benchmarks whose name matches
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/harness"
	"flashsim/internal/hw"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

// trajectorySchema versions the BENCH_*.json layout. Schema 2 added
// the per-entry Shards count (intra-run parallel execution).
const trajectorySchema = 2

// Entry is one benchmark's outcome.
type Entry struct {
	Name string
	// N is the iteration count the harness settled on.
	N           int
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
	// Shards is the intra-run shard count the entry's simulations used
	// (1 = serial). Scaling claims are only comparable between records
	// whose CPUs/MaxProcs host metadata can actually seat the shards.
	Shards int
	// Extra carries b.ReportMetric values (e.g. "sim-instrs/op").
	Extra map[string]float64 `json:",omitempty"`
}

// Trajectory is the whole BENCH_<date>.json document.
type Trajectory struct {
	Schema   int
	Date     string
	Go       string
	GOOS     string
	GOARCH   string
	CPUs     int
	MaxProcs int
	Entries  []Entry
}

// nopHandler discards events (mirrors the sim package's benchmark
// handler, which is not exported).
type nopHandler struct{}

func (nopHandler) HandleEvent(sim.Ticks, uint64) {}

// benchmarks is the curated suite: the allocation-sensitive hot paths
// first (their allocs/op figures are the regression contract), then the
// simulator-speed and end-to-end figure benchmarks at quick scale.
var benchmarks = []struct {
	name string
	fn   func(b *testing.B)
	// shards is the intra-run shard count recorded with the entry
	// (0 means serial and is normalized to 1 in the record).
	shards int
}{
	{name: "event-queue-hold", fn: func(b *testing.B) {
		q := sim.NewQueue()
		var h sim.Handler = nopHandler{}
		const pending = 64
		for i := 0; i < pending; i++ {
			q.ScheduleFn(sim.Ticks(i), int32(i&3), h, uint64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Step()
			q.ScheduleFn(q.Now()+pending, int32(i&3), h, uint64(i))
		}
	}},
	{name: "event-queue-closure", fn: func(b *testing.B) {
		q := sim.NewQueue()
		nop := func(sim.Ticks) {}
		const pending = 64
		for i := 0; i < pending; i++ {
			q.Schedule(sim.Ticks(i), int32(i&3), nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Step()
			q.Schedule(q.Now()+pending, int32(i&3), nop)
		}
	}},
	{name: "emitter-throughput", fn: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := emitter.Start(1, func(t *emitter.Thread) { t.IntOps(1 << 16) })
			n := 0
			for {
				if _, ok := s.Readers[0].Next(); !ok {
					break
				}
				n++
			}
			s.Abort()
			if n != 1<<16 {
				b.Fatal("short stream")
			}
		}
		b.ReportMetric(float64(int(1)<<16), "instrs/op")
	}},
	{name: "isa-encode", fn: func(b *testing.B) {
		ins := benchInstrs(1 << 15)
		buf := isa.EncodeStream(ins)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, in := range ins {
				buf = isa.AppendInstr(buf, in)
			}
		}
		b.ReportMetric(float64(len(ins)), "instrs/op")
		b.ReportMetric(float64(len(buf))/float64(len(ins)), "bytes/instr")
	}},
	{name: "isa-decode", fn: func(b *testing.B) {
		ins := benchInstrs(1 << 15)
		enc := isa.EncodeStream(ins)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rest := enc
			for len(rest) > 0 {
				_, n, err := isa.DecodeInstr(rest)
				if err != nil {
					b.Fatal(err)
				}
				rest = rest[n:]
			}
		}
		b.ReportMetric(float64(len(ins)), "instrs/op")
	}},
	{name: "trace-roundtrip", fn: func(b *testing.B) {
		ins := benchInstrs(1 << 15)
		var compressed int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			tw, err := trace.NewWriter(&buf, trace.Meta{Workload: "bench", Threads: 1})
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(ins); off += 256 {
				end := off + 256
				if end > len(ins) {
					end = len(ins)
				}
				tw.Tap(0, ins[off:end])
			}
			if err := tw.Finish(); err != nil {
				b.Fatal(err)
			}
			tr, err := trace.Decode(buf.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			cur := tr.Thread(0)
			var got uint64
			for {
				batch, err := cur.NextBatch()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				got += uint64(len(batch))
			}
			if got != uint64(len(ins)) {
				b.Fatalf("round-trip lost instructions: %d != %d", got, len(ins))
			}
			compressed = int(tr.CompressedBytes())
		}
		b.ReportMetric(float64(len(ins)), "instrs/op")
		b.ReportMetric(float64(compressed)/float64(len(ins)), "comp-bytes/instr")
	}},
	{name: "sim-speed-mipsy", fn: func(b *testing.B) {
		benchRun(b, core.SimOSMipsy(1, 150, true), "fft")
	}},
	{name: "sim-speed-mxs", fn: func(b *testing.B) {
		benchRun(b, core.SimOSMXS(1, true), "fft")
	}},
	{name: "sim-speed-hw", fn: func(b *testing.B) {
		cfg := hw.Config(1, true)
		cfg.JitterPct = 0
		benchRun(b, cfg, "fft")
	}},
	{name: "sim-speed-gups", fn: func(b *testing.B) {
		// Hotspot random-update stressor: almost every access is a
		// remote miss, so this prices the memory-system event path
		// where sim-speed-mipsy (FFT) prices mostly-compute streams.
		benchRun(b, core.SimOSMipsy(1, 150, true), "gups")
	}},
	{name: "sim-speed-oltp", fn: func(b *testing.B) {
		// Pointer-chasing transaction mix: dependent loads and lock
		// traffic, the latency-bound end of the simulator-speed axis.
		benchRun(b, core.SimOSMipsy(1, 150, true), "oltp")
	}},
	{name: "sim-speed-sampled", fn: func(b *testing.B) {
		// Execution-driven sampling under the default warm schedule: the
		// speed side of the flashsim validate sampling error rows.
		// Live generation and warm-state touches bound the win.
		cfg := core.SimOSMipsy(1, 150, true)
		cfg.Sampling = machine.DefaultSampling()
		benchRun(b, cfg, "fft")
	}},
	{name: "sim-speed-sampled-replay", fn: func(b *testing.B) {
		// The replay image as the fast-forward stream, default schedule:
		// collapsed compute runs skip in O(1) but warm touches remain.
		benchSampledReplay(b, machine.DefaultSampling())
	}},
	{name: "sim-speed-sampled-replay-cold", fn: func(b *testing.B) {
		// The speed end of the trade-off: trace fast-forward with a
		// sparse cold schedule (2% detailed, no warm touches). Compare
		// against sim-speed-mipsy for the sampled-vs-execution-driven
		// speedup; flashsim validate sampling prices the error.
		sched := machine.DefaultSampling()
		sched.Period = 100_000
		sched.ColdState = true
		benchSampledReplay(b, sched)
	}},
	{name: "figure1-quick", fn: func(b *testing.B) {
		s := harness.NewSession(harness.ScaleQuick)
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Figure1(); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// The shard-scaling curve: the same figure with every simulation
	// partitioned across 2/4/8 host cores (figure1-quick above is the
	// shards=1 baseline). Results are bit-identical at every rung —
	// only the wall clock moves — so ns/op across these four entries
	// against the record's CPUs field IS the intra-run speedup curve.
	{name: "figure1-quick-shards2", fn: benchFigure1Sharded(2), shards: 2},
	{name: "figure1-quick-shards4", fn: benchFigure1Sharded(4), shards: 4},
	{name: "figure1-quick-shards8", fn: benchFigure1Sharded(8), shards: 8},
	{name: "figure1-sampled", fn: func(b *testing.B) {
		// The same figure with every study simulator running the default
		// sampling schedule: the speed axis of the sampled-simulation
		// trade-off, paired with flashsim validate sampling's error
		// axis. The hardware reference is outside the override and stays
		// as-is, so the delta vs figure1-quick is the simulators' win.
		s := harness.NewSession(harness.ScaleQuick)
		s.Override = func(cfg machine.Config) (machine.Config, error) {
			cfg.Sampling = machine.DefaultSampling()
			return cfg, nil
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Figure1(); err != nil {
				b.Fatal(err)
			}
		}
	}},
}

// benchInstrs builds a deterministic instruction mix shaped like a
// captured per-thread stream: strided loads and stores with short
// dependence distances, ALU/FP work between them, periodic branches,
// and an occasional lock round-trip. The codec benchmarks use it so
// their ns/op reflect the field-presence distribution of real traces,
// not all-zero or all-full instructions.
func benchInstrs(n int) []isa.Instr {
	ins := make([]isa.Instr, 0, n+8)
	for i := 0; len(ins) < n; i++ {
		base := uint64(0x10_0000 + (i%4096)*64)
		ins = append(ins,
			isa.Instr{Op: isa.Load, Addr: base, Size: 8, Dep1: 2},
			isa.Instr{Op: isa.IntALU, Dep1: 1, Dep2: 3},
			isa.Instr{Op: isa.FPMul, Dep1: 1},
			isa.Instr{Op: isa.Store, Addr: base + 8, Size: 8, Dep1: 2},
			isa.Instr{Op: isa.IntALU},
			isa.Instr{Op: isa.Branch, Dep1: 1},
		)
		if i%64 == 63 {
			ins = append(ins,
				isa.Instr{Op: isa.Lock, Aux: uint32(i%8) + 1},
				isa.Instr{Op: isa.Unlock, Aux: uint32(i%8) + 1})
		}
	}
	return ins[:n]
}

// benchProg resolves a registry workload at its quick defaults for one
// processor — the benchmark suite's problem sizes.
func benchProg(b *testing.B, name string) emitter.Program {
	def, err := workload.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	vals, err := def.Resolve(nil, true)
	if err != nil {
		b.Fatal(err)
	}
	return def.Build(vals, 1)
}

// benchSampledReplay captures the benchmark FFT once (outside the
// timer — a trace is captured once and replayed many times) and then
// measures sampled replay of the image under sched.
func benchSampledReplay(b *testing.B, sched machine.SamplingConfig) {
	cfg := core.SimOSMipsy(1, 150, true)
	prog := benchProg(b, "fft")
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Workload: prog.FullName(), Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := machine.RunCapture(cfg, prog, tw); err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Decode(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sampling = sched
	b.ReportAllocs()
	b.ResetTimer()
	var res machine.Result
	for i := 0; i < b.N; i++ {
		res, err = machine.RunReplay(cfg, img)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Instructions), "sim-instrs/op")
	b.ReportMetric(100*float64(res.Sampling.DetailedInstrs)/float64(res.Instructions), "detailed-%")
}

// benchFigure1Sharded builds a figure1-quick variant whose simulations
// all run with the given intra-run shard count.
func benchFigure1Sharded(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		s := harness.NewSession(harness.ScaleQuick)
		s.Override = func(cfg machine.Config) (machine.Config, error) {
			cfg.Shards = shards
			return cfg, nil
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Figure1(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRun measures one quick machine run of a registry workload and
// reports simulated instructions per op, the simulator-speed axis of
// the paper.
func benchRun(b *testing.B, cfg machine.Config, name string) {
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := machine.Run(cfg, benchProg(b, name))
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instructions
	}
	b.ReportMetric(float64(instrs), "sim-instrs/op")
}

func main() {
	log.SetFlags(0)
	var (
		out   = flag.String("out", "", `output path, or "-" for stdout (default BENCH_<date>.json)`)
		date  = flag.String("date", "", "date stamp for the record (default today, YYYY-MM-DD)")
		match = flag.String("match", "", "run only benchmarks whose name contains this substring")
	)
	flag.Parse()

	day := *date
	if day == "" {
		day = time.Now().Format("2006-01-02")
	}
	path := *out
	if path == "" {
		path = "BENCH_" + day + ".json"
	}

	traj := Trajectory{
		Schema:   trajectorySchema,
		Date:     day,
		Go:       runtime.Version(),
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		MaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, bm := range benchmarks {
		if *match != "" && !strings.Contains(bm.name, *match) {
			continue
		}
		r := testing.Benchmark(bm.fn)
		shards := bm.shards
		if shards == 0 {
			shards = 1
		}
		e := Entry{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Shards:      shards,
		}
		if len(r.Extra) > 0 {
			e.Extra = r.Extra
		}
		traj.Entries = append(traj.Entries, e)
		fmt.Printf("%-24s %12.1f ns/op %8d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
		for k, v := range e.Extra {
			fmt.Printf("  %s=%.0f", k, v)
		}
		fmt.Println()
	}
	if len(traj.Entries) == 0 {
		log.Fatalf("no benchmark matches %q", *match)
	}

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if path == "-" {
		os.Stdout.Write(append(data, '\n'))
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(traj.Entries))
}
