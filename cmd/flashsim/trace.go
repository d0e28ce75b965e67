package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"flashsim/internal/cliutil"
	"flashsim/internal/core"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

// captureCmd is `flashsim trace capture`.
func captureCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	wf := cliutil.RegisterWorkloadOn(fs)
	spec := specFlags(fs, "simos-mipsy")
	fs.IntVar(&spec.Procs, "procs", 1, "processor count")
	out := fs.String("o", "", "output container path (default <app>.fltr)")
	return func(e *env) error {
		if wf.List(e.out) {
			return nil
		}
		if err := wf.Finish(); err != nil {
			return usageError{err}
		}
		cfg, err := machineConfig(cf, spec)
		if err != nil {
			return err
		}
		prog, w, err := wf.Program(spec.Procs)
		if err != nil {
			return err
		}
		// The container records the run as a flashd request body.
		source, err := json.Marshal(struct {
			core.ConfigSpec
			Workload workload.Spec `json:"workload"`
		}{*spec, w})
		if err != nil {
			return err
		}
		path := *out
		if path == "" {
			path = wf.App + ".fltr"
		}
		t0 := time.Now()
		res, err := cliutil.CaptureRun(path, cfg, prog, source)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "captured %s (%d instructions, %.3f ms simulated) in %v\n",
			prog.FullName(), res.Instructions, res.ExecSeconds()*1e3, time.Since(t0).Round(time.Millisecond))
		if st, err := os.Stat(path); err == nil {
			fmt.Fprintf(e.out, "wrote %s (%d bytes, %.2f bits/instr)\n",
				path, st.Size(), 8*float64(st.Size())/float64(res.Instructions))
		}
		return nil
	}
}

// inspectCmd is `flashsim trace inspect <container>`.
func inspectCmd(fs *flag.FlagSet, _ *cliutil.Flags) func(*env) error {
	verify := fs.Bool("verify", true, "fully decode every stream (CRCs, codec, counts)")
	return func(e *env) error {
		if len(e.args) != 1 {
			return usagef("want one argument: flashsim trace inspect [-verify=false] <container.fltr>")
		}
		path := e.args[0]
		tr, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		st, _ := os.Stat(path)
		m := tr.Meta()
		fmt.Fprintf(e.out, "container:    %s (format v%d)\n", path, trace.FormatVersion)
		fmt.Fprintf(e.out, "workload:     %s, %d thread(s)\n", m.Workload, m.Threads)
		if m.Artifact != "" {
			fmt.Fprintf(e.out, "artifact:     %s\n", m.Artifact)
		}
		if m.Fingerprint != "" {
			fmt.Fprintf(e.out, "capture run:  %s\n", m.Fingerprint)
		}
		fmt.Fprintf(e.out, "instructions: %d total", tr.Instructions())
		for i := 0; i < tr.Threads(); i++ {
			sep := ", "
			if i == 0 {
				sep = " ("
			}
			fmt.Fprintf(e.out, "%st%d=%d", sep, i, tr.ThreadInstructions(i))
		}
		fmt.Fprintf(e.out, ")\n")
		fmt.Fprintf(e.out, "chunks:       %d (%d batches recorded)\n", tr.Chunks(), tr.Batches())
		if st != nil && tr.Instructions() > 0 {
			fmt.Fprintf(e.out, "size:         %d bytes, %.2f bits/instr\n",
				st.Size(), 8*float64(st.Size())/float64(tr.Instructions()))
		}
		l := tr.Layout()
		fmt.Fprintf(e.out, "address span: %#x, %d region(s)\n", l.Span, len(l.Regions))
		for _, r := range l.Regions {
			fmt.Fprintf(e.out, "  %-16s base=%#010x size=%-10d place{kind=%d node=%d stride=%d}\n",
				r.Name, r.Base, r.Size, r.PlaceKind, r.PlaceNode, r.PlaceStride)
		}
		if len(m.Source) > 0 {
			fmt.Fprintf(e.out, "source spec:  %s\n", m.Source)
		}
		if *verify {
			n, err := tr.Verify()
			if err != nil {
				return fmt.Errorf("verify FAILED after %d instructions: %w", n, err)
			}
			fmt.Fprintf(e.out, "verify:       OK (%d instructions decoded)\n", n)
		}
		return nil
	}
}

// replayCmd is `flashsim trace replay <container>`: the machine is
// sized from the trace's thread count.
func replayCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	spec := specFlags(fs, "simos-mipsy")
	return func(e *env) error {
		if len(e.args) != 1 {
			return usagef("want one argument: flashsim trace replay [flags] <container.fltr>")
		}
		img, err := cliutil.LoadReplay(e.args[0])
		if err != nil {
			return err
		}
		spec.Procs = img.Threads()
		cfg, err := machineConfig(cf, spec)
		if err != nil {
			return err
		}
		t0 := time.Now()
		out := e.pool.RunOne(context.Background(), runner.Job{Config: cfg, Replay: img})
		if out.Err != nil {
			return out.Err
		}
		res := out.Result
		fmt.Fprintf(e.out, "%s (trace-driven) on %s, %d processor(s)\n", img.Workload(), cfg.Name, spec.Procs)
		report(e.out, res, time.Since(t0), false)
		return nil
	}
}
