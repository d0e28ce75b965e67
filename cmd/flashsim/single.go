package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"flashsim/internal/cliutil"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
	"flashsim/internal/runner"
	"flashsim/internal/sim"
)

// runCmd is `flashsim run`: one workload on one machine, executed
// through the pool.
func runCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	procs := fs.Int("procs", 1, "processor count")
	sf := addSimFlags(fs, "hw")
	check := fs.Bool("check-coherence", false, "verify directory protocol invariants after every operation")
	wf := cliutil.RegisterWorkloadOn(fs)
	return func(e *env) error {
		if err := wf.Finish(); err != nil {
			return usageError{err}
		}
		cfg, err := sf.config(cf, *procs)
		if err != nil {
			return err
		}
		cfg.CheckCoherence = *check
		prog, _, err := wf.Program(*procs)
		if err != nil {
			return err
		}

		t0 := time.Now()
		res, err := runner.RunOne(e.pool, runner.Job{Config: cfg, Prog: prog})
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		if e.pool.Stats().CacheHits > 0 {
			fmt.Fprintf(e.out, "[memoized: result served from %s]\n", e.store.Dir())
		}
		fmt.Fprintf(e.out, "%s on %s, %d processor(s)\n", prog.FullName(), cfg.Name, *procs)
		report(e.out, res, wall, true)
		return nil
	}
}

// report prints one run's result. detail adds what only an
// execution-driven report carries: the L1 rate, the page count and the
// protocol-case histogram.
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
