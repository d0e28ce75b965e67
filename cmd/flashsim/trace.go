package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"flashsim/internal/cliutil"
	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
)

// workFlags is the workload/config flag block shared by trace capture
// and trace sweep (the subcommands that build an execution-driven run).
type workFlags struct {
	wf    *cliutil.WorkloadFlags
	procs *int
	sf    simFlags
}

func addWorkFlags(fs *flag.FlagSet) workFlags {
	return workFlags{
		wf:    cliutil.RegisterWorkloadOn(fs),
		procs: fs.Int("procs", 1, "processor count"),
		sf:    addSimFlags(fs, "simos-mipsy", true),
	}
}

// build resolves the flags into the configuration, the program, and the
// source spec recorded in the container.
func (w workFlags) build(cf *cliutil.Flags) (machine.Config, emitter.Program, json.RawMessage, error) {
	fail := func(err error) (machine.Config, emitter.Program, json.RawMessage, error) {
		return machine.Config{}, emitter.Program{}, nil, err
	}
	if err := w.wf.Finish(); err != nil {
		return fail(usageError{err})
	}
	cfg, err := w.sf.config(cf, *w.procs)
	if err != nil {
		return fail(err)
	}
	prog, spec, err := w.wf.Program(*w.procs)
	if err != nil {
		return fail(err)
	}
	source, err := json.Marshal(struct {
		Workload json.RawMessage `json:"workload"`
		Sim      string          `json:"sim"`
		MHz      int             `json:"mhz"`
		Procs    int             `json:"procs"`
	}{spec, *w.sf.name, *w.sf.mhz, *w.procs})
	if err != nil {
		return fail(err)
	}
	return cfg, prog, source, nil
}

// captureCmd is `flashsim trace capture`.
func captureCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	w := addWorkFlags(fs)
	out := fs.String("o", "", "output container path (default <app>.fltr)")
	storeDir := fs.String("store", "", "save into this content-addressed trace store instead of -o")
	return func(e *env) error {
		cfg, prog, source, err := w.build(cf)
		if err != nil {
			return err
		}
		captured := func(res machine.Result, t0 time.Time) {
			fmt.Fprintf(e.out, "captured %s (%d instructions, %.3f ms simulated) in %v\n",
				prog.FullName(), res.Instructions, res.ExecSeconds()*1e3, time.Since(t0).Round(time.Millisecond))
		}

		if *storeDir != "" {
			ts, err := runner.NewTraceStore(*storeDir)
			if err != nil {
				return err
			}
			fp := runner.TraceFingerprint(cfg, prog)
			t0 := time.Now()
			var res machine.Result
			stored := false
			if !ts.Has(fp) {
				stored, err = ts.Save(fp, func(wr io.Writer) error {
					tw, err := trace.NewWriter(wr, runner.TraceMeta(cfg, prog, source))
					if err != nil {
						return err
					}
					res, err = machine.RunCapture(cfg, prog, tw)
					return err
				})
				if err != nil {
					return err
				}
			}
			if !stored {
				fmt.Fprintf(e.out, "already captured: %s\n", ts.Path(fp))
				return nil
			}
			captured(res, t0)
			fmt.Fprintf(e.out, "stored: %s\n", ts.Path(fp))
			return nil
		}

		path := *out
		if path == "" {
			path = w.wf.App + ".fltr"
		}
		t0 := time.Now()
		res, err := cliutil.CaptureRun(path, cfg, prog, source)
		if err != nil {
			return err
		}
		captured(res, t0)
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
	sf := addSimFlags(fs, "simos-mipsy", true)
	return func(e *env) error {
		if len(e.args) != 1 {
			return usagef("want one argument: flashsim trace replay [flags] <container.fltr>")
		}
		img, err := cliutil.LoadReplay(e.args[0])
		if err != nil {
			return err
		}
		procs := img.Threads()
		cfg, err := sf.config(cf, procs)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := runner.RunOne(e.pool, runner.Job{Config: cfg, Replay: img})
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "%s (trace-driven) on %s, %d processor(s)\n", img.Workload(), cfg.Name, procs)
		report(e.out, res, time.Since(t0), false)
		return nil
	}
}

// sweepRecord is the committed JSON evidence of the replay-sweep
// acceptance criterion: N memory-system points, replay vs. execution
// wall-clock, and the per-point agreement.
//
// The execution-driven side of a memory-system study is not one run
// per point: because execution-driven results depend on the core
// model, the study (like the paper's) runs every point at each rung of
// the CPU-detail ladder — classic Mipsy, Mipsy with functional-unit
// latencies, and MXS. A trace replays core-model-free, so the
// trace-driven side is ONE replay per point, with the per-rung
// deviation reported as the trace-driven error. Both framings of the
// win are recorded: SpeedupX (vs. the full ladder) and
// SingleRungSpeedupX (vs. one classic-Mipsy run per point), plus
// WithCaptureSpeedupX, which charges the one-time capture cost to this
// sweep instead of amortizing it across future sweeps of the stored
// artifact.
type sweepRecord struct {
	Workload     string    `json:"workload"`
	Config       string    `json:"config"`
	Param        string    `json:"param"`
	Values       []float64 `json:"values"`
	Points       int       `json:"points"`
	Instructions uint64    `json:"instructions"`
	Jobs         int       `json:"jobs"`

	// Ladder names the execution-driven core models run at every sweep
	// point; ExecRungMS and RungMaxRelErr align with it.
	Ladder []string `json:"ladder"`

	CaptureMS  float64   `json:"capture_ms"`
	PrepareMS  float64   `json:"prepare_ms"`
	ExecRungMS []float64 `json:"exec_rung_ms"`
	ExecMS     float64   `json:"exec_ms"`
	ReplayMS   float64   `json:"replay_ms"`

	SpeedupX            float64 `json:"speedup_x"`
	SingleRungSpeedupX  float64 `json:"single_rung_speedup_x"`
	WithCaptureSpeedupX float64 `json:"with_capture_speedup_x"`

	// IdenticalPoints counts sweep points where the trace-driven
	// ExecTicks equal the classic-Mipsy execution-driven ones bit for
	// bit (all of them, by construction). RungMaxRelErr is the largest
	// relative ExecTicks deviation of the replay from each ladder rung
	// across points — zero at the classic-Mipsy rung, and the
	// trace-driven error (an Omission row of the taxonomy) at the
	// detailed rungs.
	IdenticalPoints int       `json:"identical_points"`
	RungMaxRelErr   []float64 `json:"rung_max_rel_err"`
}

// sweepCmd is `flashsim trace sweep`. Its pools are its own: same
// worker count on both sides and no memo store, because the comparison
// is simulation cost, not cache hits.
func sweepCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	w := addWorkFlags(fs)
	points := fs.Int("points", 24, "sweep point count")
	path := fs.String("param", "flash.inbox_ns", "memory-system parameter to sweep")
	minV := fs.Float64("min", 10, "lowest parameter value")
	maxV := fs.Float64("max", 125, "highest parameter value")
	ladder := fs.Bool("ladder", true, "run the execution-driven side at every CPU-detail rung (mipsy, mipsy+lat, mxs) per point")
	jsonOut := fs.String("json", "", "write the sweep report as JSON to this file")
	return func(e *env) error {
		if *points < 2 {
			return usagef("-points must be at least 2")
		}
		cfg, prog, source, err := w.build(cf)
		if err != nil {
			return err
		}

		// The sweep grid: -points values of -param, linearly spaced.
		cfgs := make([]machine.Config, *points)
		values := make([]float64, *points)
		for i := range cfgs {
			v := *minV + (*maxV-*minV)*float64(i)/float64(*points-1)
			s, err := param.ParseSetting(fmt.Sprintf("%s=%g", *path, v))
			if err != nil {
				return err
			}
			c, err := param.ApplySettings(cfg, []param.Setting{s})
			if err != nil {
				return err
			}
			c.Name = fmt.Sprintf("%s %s=%g", cfg.Name, *path, v)
			cfgs[i] = c
			values[i] = v
		}
		ms := func(t0 time.Time) float64 { return float64(time.Since(t0).Microseconds()) / 1e3 }

		// Capture once (this is itself one execution-driven run).
		fmt.Fprintf(e.out, "capturing %s on %s...\n", prog.FullName(), cfg.Name)
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf, runner.TraceMeta(cfg, prog, source))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := machine.RunCapture(cfg, prog, tw); err != nil {
			return err
		}
		rep := sweepRecord{
			Workload:  prog.FullName(),
			Config:    cfg.Name,
			Param:     *path,
			Values:    values,
			Points:    *points,
			Jobs:      cf.Jobs,
			CaptureMS: ms(t0),
		}

		// Prepare once; every replay shares the image.
		t0 = time.Now()
		tr, err := trace.Decode(buf.Bytes())
		if err != nil {
			return err
		}
		img, err := machine.PrepareReplay(tr)
		if err != nil {
			return err
		}
		rep.PrepareMS = ms(t0)
		rep.Instructions = img.Instructions()

		// The execution-driven side: every sweep point at every rung of
		// the CPU-detail ladder (exec results are core-model-dependent,
		// so a study needs all rungs); the trace-driven side: one replay
		// per point.
		rungs := []struct {
			name string
			mut  func(machine.Config) machine.Config
		}{
			{"mipsy", func(c machine.Config) machine.Config { return c }},
			{"mipsy+lat", func(c machine.Config) machine.Config {
				c.ModelInstrLatency = true
				c.Name += " +lat"
				return c
			}},
			{"mxs", func(c machine.Config) machine.Config {
				// Mirrors core.SimOSMXS: the out-of-order core at the
				// hardware clock with MXS's untuned TLB handler cost.
				c.CPU = machine.CPUMXS
				c.ClockMHz = 150
				c.OS.TLBHandlerCycles = core.UntunedMXSTLBCycles
				c.ModelInstrLatency = false
				c.Name += " MXS"
				return c
			}},
		}
		if !*ladder {
			rungs = rungs[:1]
		}
		rep.RungMaxRelErr = make([]float64, len(rungs))

		replayJobs := make([]runner.Job, *points)
		for i := range cfgs {
			replayJobs[i] = runner.Job{Config: cfgs[i], Replay: img}
		}
		ctx := context.Background()
		fmt.Fprintf(e.out, "replaying %d points (%d workers)...\n", *points, cf.Jobs)
		t0 = time.Now()
		replayRes, err := runner.New(cf.Jobs, nil).Run(ctx, replayJobs)
		if err != nil {
			return err
		}
		rep.ReplayMS = ms(t0)

		for r, rung := range rungs {
			execJobs := make([]runner.Job, *points)
			for i := range cfgs {
				execJobs[i] = runner.Job{Config: rung.mut(cfgs[i]), Prog: prog}
			}
			fmt.Fprintf(e.out, "executing %d points at rung %q (%d workers)...\n", *points, rung.name, cf.Jobs)
			t0 = time.Now()
			execRes, err := runner.New(cf.Jobs, nil).Run(ctx, execJobs)
			if err != nil {
				return err
			}
			rungMS := ms(t0)
			rep.Ladder = append(rep.Ladder, rung.name)
			rep.ExecRungMS = append(rep.ExecRungMS, rungMS)
			rep.ExecMS += rungMS
			for i := range execRes {
				ex, rr := float64(execRes[i].Exec), float64(replayRes[i].Exec)
				if r == 0 && execRes[i].Exec == replayRes[i].Exec {
					rep.IdenticalPoints++
				}
				if ex > 0 {
					rep.RungMaxRelErr[r] = math.Max(rep.RungMaxRelErr[r], math.Abs(rr-ex)/ex)
				}
			}
		}

		traceMS := rep.PrepareMS + rep.ReplayMS
		rep.SpeedupX = rep.ExecMS / traceMS
		rep.SingleRungSpeedupX = rep.ExecRungMS[0] / traceMS
		rep.WithCaptureSpeedupX = rep.ExecMS / (rep.CaptureMS + traceMS)

		fmt.Fprintf(e.out, "\n%s: %d-point sweep of %s over [%g, %g]\n", rep.Workload, rep.Points, rep.Param, *minV, *maxV)
		fmt.Fprintf(e.out, "  capture (once):     %8.1f ms\n", rep.CaptureMS)
		fmt.Fprintf(e.out, "  prepare (once):     %8.1f ms\n", rep.PrepareMS)
		for r, name := range rep.Ladder {
			fmt.Fprintf(e.out, "  exec rung %-9s %8.1f ms (max rel. ExecTicks err vs. replay %.3g)\n",
				name+":", rep.ExecRungMS[r], rep.RungMaxRelErr[r])
		}
		fmt.Fprintf(e.out, "  execution-driven:   %8.1f ms (%d rung(s)/point)\n", rep.ExecMS, len(rep.Ladder))
		fmt.Fprintf(e.out, "  trace-driven:       %8.1f ms (prepare + replays)\n", traceMS)
		fmt.Fprintf(e.out, "  sweep speedup:      %8.2fx vs. the ladder (%.2fx vs. one mipsy run/point, %.2fx charging capture here)\n",
			rep.SpeedupX, rep.SingleRungSpeedupX, rep.WithCaptureSpeedupX)
		fmt.Fprintf(e.out, "  identical points:   %d/%d at the classic-Mipsy rung\n",
			rep.IdenticalPoints, rep.Points)
		if *jsonOut == "" {
			return nil
		}
		return writeJSON(e.out, *jsonOut, rep)
	}
}
