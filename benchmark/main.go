// Command benchmark is the repository's benchmark: four closed-loop
// workloads of fixed op count, six end-to-end metrics per workload, and
// a per-layer ledger from a separate traced run. BENCHMARK.json at the
// repository root names the command, the workloads and the metrics;
// README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload study-quick            # gated run
//	bash benchmark/run.sh --workload mp-contend --trace 1   # per-layer ledger + span file
//	bash benchmark/run.sh --selfcheck                       # two interleaved sets, compared
//	bash benchmark/run.sh --workload served-mix --plan      # print the seeded inputs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// gated are the end-to-end metrics, in report order. BENCHMARK.json
// carries the same names with their bounds; a test keeps the two equal.
var gated = []string{"setup_s", "op_ms_p50", "host_ns_per_instr", "allocs_per_op", "alloc_kb_per_op", "err_pct"}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    string
	short    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: study-quick, mp-contend, replay-sweep or served-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed phase the frozen op count is scaled to")
	flag.StringVar(&o.trace, "trace", "0", "0 = gated run; 1 = traced run writing .bench_build/spans-<workload>.json; any other value = traced run writing spans to that file")
	flag.BoolVar(&o.short, "short", false, "few-op smoke mode of the gated run (tests only; its numbers mean nothing)")
	plan := flag.Bool("plan", false, "print the inputs generated from -seed and exit without running")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of gated runs of every workload and compare them")
	rounds := flag.Int("rounds", 5, "runs per workload in each selfcheck set")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *selfcheck {
		if err := runSelfcheck(o, *rounds, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fatal(err)
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if *plan {
		inst, err := w.New(o.seed, o.ops(w))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload %s seed %d: %d ops, %d closed-loop client(s)\n", w.Name, o.seed, o.ops(w), w.Clients)
		inst.describe(os.Stdout)
		return
	}
	var res result
	if o.trace == "0" || o.trace == "" {
		res, err = runGated(w, o)
	} else {
		res, err = runTraced(w, o)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// ops returns the op count of a gated run under these options.
func (o options) ops(w *workloadDef) int {
	if o.short {
		return w.ShortOps
	}
	return w.opsFor(o.seconds)
}

func (o options) limit() time.Duration {
	return time.Duration(float64(o.seconds) * overrun * float64(time.Second))
}

// runGated measures the end-to-end metrics with tracing off. Every
// gated number is taken with one P: it is host work per op, which
// repeats on this host where multi-core wall time does not (README.md).
func runGated(w *workloadDef, o options) (result, error) {
	runtime.GOMAXPROCS(1)
	ops := o.ops(w)
	inst, err := w.New(o.seed, ops)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	reps := setupReps
	if o.short {
		reps = 1
	}
	hs := newHostSpeed()
	setups, chainMS, err := runSetup(inst, reps, hs)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	ph := runPhase(inst, ops, w.Clients, w.SegOps, o.limit(), hs, func(int) *tracer { return nil })
	if len(ph.opMS) == 0 {
		return result{}, fmt.Errorf("no op completed: %v", ph.firstErr)
	}
	// One slowdown for the run, from every calibration of the process:
	// the few around the set-ups alone are too few to judge the host by.
	chainMS = append(chainMS, ph.chainMS...)
	res := result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   endToEnd(setups, ph, slowdown(chainMS), inst.errPct()),
	}
	fmt.Printf("workload %s  seed %d  ops %d/%d  clients %d  timed phase %.2f s  GOMAXPROCS 1\n",
		w.Name, o.seed, len(ph.opMS), ops, w.Clients, ph.wall.Seconds())
	for _, name := range gated {
		m := res.Metrics[name]
		fmt.Printf("  %-18s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  op time             %s\n", tailLine(ph.opMS))
	fmt.Printf("  as the clock read   op_ms_p50 %.6g ms, host_ns_per_instr %.6g ns, set-up runs %.4f s\n",
		median(ph.opMS), float64(ph.wall)/float64(ph.instrs), setups)
	fmt.Printf("  host                %s\n", speedLine(chainMS))
	fmt.Printf("  sim_digest          %s\n", inst.simDigest())
	if ph.firstErr != nil {
		fmt.Printf("  FAILED ops          %d of %d; first: %v\n", ph.failed, ph.attempted, ph.firstErr)
	}
	return res, nil
}

// runTraced produces the per-layer ledger: the workload's ops run
// alternately untraced and traced (their difference is the tracing
// overhead), then every layer probe runs on the workload's streams, and
// the spans are written out at the end.
func runTraced(w *workloadDef, o options) (result, error) {
	runtime.GOMAXPROCS(1)
	path := o.trace
	if path == "1" {
		path = filepath.Join(".bench_build", "spans-"+w.Name+".json")
	}
	ops := w.TracedOps
	inst, err := w.New(o.seed, ops)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	if err := inst.setup(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	runtime.GC()
	// Ops alternate per client turn, so every client runs both kinds. The
	// two kinds are compared with each other, so no calibration is needed.
	ph := runPhase(inst, ops, w.Clients, w.SegOps, o.limit(), nil, func(i int) *tracer {
		if (i/w.Clients)%2 == 1 {
			return tr
		}
		return nil
	})
	if len(ph.opMS) == 0 {
		return result{}, fmt.Errorf("no op completed: %v", ph.firstErr)
	}
	var plain, traced []float64
	for i, ms := range ph.opMS {
		if ph.traced[i] {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	hits, jobs := inst.memo()
	metrics, err := runProbes(tr, inst.probe(), hits, jobs)
	if err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics["host.gc_cpu_pct"] = metric{100 * ms.GCCPUFraction, "%"}
	metrics["host.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	metrics["host.cpu_ms_per_op"] = metric{float64(ph.cpu) / 1e6 / float64(ph.attempted), "ms"}
	overhead := 0.0
	if len(plain) > 0 && len(traced) > 0 {
		overhead = 100 * (median(traced) - median(plain)) / median(plain)
	}
	metrics["host.trace_overhead_pct"] = metric{overhead, "%"}

	spans := tr.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("workload %s  seed %d  traced run: %d ops (%d traced), %d spans -> %s\n",
		w.Name, o.seed, len(ph.opMS), len(traced), len(spans), path)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-38s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	fmt.Println("  spans by name: count, total ms, self ms (self = duration minus what child spans cover)")
	for _, s := range summarize(spans) {
		fmt.Printf("    %-30s %7d %12.3f %12.3f\n", s.Name, s.Count, float64(s.TotalNS)/1e6, float64(s.SelfNS)/1e6)
	}
	fmt.Printf("  sim_digest          %s\n", inst.simDigest())
	if ph.firstErr != nil {
		fmt.Printf("  FAILED ops          %d of %d; first: %v\n", ph.failed, ph.attempted, ph.firstErr)
	}
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: metrics}, nil
}
