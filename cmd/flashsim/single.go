package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"flashsim/internal/cliutil"
	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
	"flashsim/internal/runner"
	"flashsim/internal/sim"
)

// runCmd is `flashsim run`: one workload on one machine, executed
// through the pool, captured (-trace-out) or replayed (-trace-in). A
// container describes one run, so this is the only subcommand with the
// trace flags.
func runCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	procs := fs.Int("procs", 1, "processor count")
	sf := addSimFlags(fs, "hw", true)
	mem := fs.String("mem", "flashlite", "memory system: flashlite, numa")
	check := fs.Bool("check-coherence", false, "verify directory protocol invariants after every operation")
	traceOut := fs.String("trace-out", "", "capture the run's instruction streams into this trace container (execution-driven run, bypasses the memo store)")
	traceIn := fs.String("trace-in", "", "replay a previously captured trace container instead of executing the workload (trace-driven run)")
	wf := cliutil.RegisterWorkloadOn(fs)
	return func(e *env) error {
		if err := wf.Finish(); err != nil {
			return usageError{err}
		}
		if *traceOut != "" && *traceIn != "" {
			return usagef("-trace-out and -trace-in are mutually exclusive (capture or replay, not both)")
		}
		cfg, err := sf.config(cf, *procs)
		if err != nil {
			return err
		}
		if *mem == "numa" {
			cfg = core.WithNUMA(cfg)
		}
		cfg.CheckCoherence = *check
		prog, _, err := wf.Program(*procs)
		if err != nil {
			return err
		}

		t0 := time.Now()
		var res machine.Result
		var mode string
		switch {
		case *traceOut != "":
			// Not through the pool: a memoized result emits no
			// instructions and can never fill a trace.
			res, err = cliutil.CaptureRun(*traceOut, cfg, prog, nil)
			mode = fmt.Sprintf("[captured trace: %s]\n", *traceOut)
		case *traceIn != "":
			var img *machine.ReplayImage
			if img, err = cliutil.LoadReplay(*traceIn); err == nil {
				res, err = runner.RunOne(e.pool, runner.Job{Config: cfg, Replay: img})
				mode = fmt.Sprintf("[trace-driven: replayed %s (%d instructions)]\n", img.Workload(), img.Instructions())
			}
		default:
			res, err = runner.RunOne(e.pool, runner.Job{Config: cfg, Prog: prog})
		}
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		fmt.Fprint(e.out, mode)
		if e.pool.Stats().CacheHits > 0 {
			fmt.Fprintf(e.out, "[memoized: result served from %s]\n", e.store.Dir())
		}
		fmt.Fprintf(e.out, "%s on %s, %d processor(s)\n", prog.FullName(), cfg.Name, *procs)
		report(e.out, res, wall, true)
		return nil
	}
}

// report prints one run's result. detail adds what only an
// execution-driven report carries: the L1 rate, the page count, the
// sampling warmup split and the protocol-case histogram.
func report(w io.Writer, res machine.Result, wall time.Duration, detail bool) {
	fmt.Fprintf(w, "  parallel section: %.3f ms simulated\n", res.ExecSeconds()*1e3)
	fmt.Fprintf(w, "  total:            %.3f ms simulated (%v wall, %.1fM instr/s)\n",
		float64(res.Total)/sim.TickHz*1e3, wall.Round(time.Millisecond),
		float64(res.Instructions)/wall.Seconds()/1e6)
	fmt.Fprintf(w, "  instructions:     %d\n", res.Instructions)
	if detail {
		fmt.Fprintf(w, "  L1 miss rate:     %.2f%%\n", 100*res.L1MissRate())
	}
	fmt.Fprintf(w, "  L2 miss rate:     %.2f%%\n", 100*res.L2MissRate())
	fmt.Fprintf(w, "  TLB misses:       %d\n", res.Metrics.TLB.Misses)
	if detail {
		fmt.Fprintf(w, "  pages mapped:     %d\n", res.Metrics.OS.PagesMapped)
	}
	if res.Sampled {
		s := res.Sampling
		fmt.Fprintf(w, "  sampling:         %d windows; %d detailed + %d functional instrs", s.Windows, s.DetailedInstrs, s.FunctionalInstrs)
		if detail {
			fmt.Fprintf(w, " (%d warmup, %d warm touches)", s.WarmupInstrs, s.WarmTouches)
		}
		fmt.Fprintln(w)
	}
	if !detail {
		return
	}
	fmt.Fprintf(w, "  protocol cases:\n")
	for c := proto.Case(0); c < proto.NumCases; c++ {
		if res.CaseCounts[c] > 0 {
			fmt.Fprintf(w, "    %-22s %d\n", c, res.CaseCounts[c])
		}
	}
	if n := res.Metrics.Dir.StaleInvals; n > 0 {
		fmt.Fprintf(w, "  stale invalidations: %d\n", n)
	}
}
