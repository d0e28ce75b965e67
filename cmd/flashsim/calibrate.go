package main

import (
	"flag"
	"fmt"

	"flashsim/internal/cliutil"
	"flashsim/internal/core"
	"flashsim/internal/harness"
	"flashsim/internal/machine"
)

// calibrator returns a calibrator against the 4-processor hardware
// reference the snbench microbenchmarks run on, wired to the
// environment's pool.
func (e *env) calibrator() *core.Calibrator {
	ref := core.NewReference(4, true)
	ref.Pool = e.pool
	return core.NewCalibrator(ref)
}

// tuneCmd is `flashsim tune`: close the simulation loop for one
// simulator — fit its parameters to the microbenchmarks, print the
// fitting log, the parameter diff, and the before/after dependent-load
// table.
func tuneCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	sf := addSimFlags(fs, "simos-mipsy", false)
	return func(e *env) error {
		cfg, err := sf.simulator(cf)
		if err != nil {
			return err
		}
		cal := e.calibrator()
		fmt.Fprintf(e.out, "calibrating %s against the hardware reference...\n", cfg.Name)
		c, err := cal.Calibrate(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(e.out, "\nadjustments (fitting log):")
		for _, a := range c.Report {
			fmt.Fprintf(e.out, "  %v\n", a)
		}
		fmt.Fprintln(e.out, "\nparameter diff (untuned -> tuned, by registry path):")
		fmt.Fprint(e.out, c.RenderDiff())

		dl, err := harness.MeasureDepLoads(cal, cfg, c.Apply(cfg))
		if err != nil {
			return err
		}
		fmt.Fprintln(e.out, "\ndependent loads (ns; relative to hardware):")
		fmt.Fprintf(e.out, "  %-22s %8s %16s %16s\n", "case", "hw", "untuned", "tuned")
		fmt.Fprint(e.out, dl.Rows(8, ""))
		return nil
	}
}

// snbenchCmd is `flashsim snbench`: dependent loads for the five
// protocol cases, the TLB-miss timer, and the restart-time (independent
// load) test, on the hardware reference and optionally one simulator.
func snbenchCmd(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error {
	sf := addSimFlags(fs, "", false)
	tuned := fs.Bool("tuned", false, "calibrate the simulator before measuring")
	return func(e *env) error {
		var sims []machine.Config // zero or one
		if *sf.name != "" {
			cfg, err := sf.simulator(cf)
			if err != nil {
				return err
			}
			sims = append(sims, cfg)
		}
		cal := e.calibrator()
		fmt.Fprintln(e.out, "Dependent loads (ns per load):")
		var labels []string
		for i, cfg := range sims {
			if *tuned {
				c, err := cal.Calibrate(cfg)
				if err != nil {
					return err
				}
				sims[i] = c.Apply(cfg)
				fmt.Fprintln(e.out, "calibration (parameter diff by registry path):")
				fmt.Fprint(e.out, c.RenderDiff())
			}
			labels = append(labels, "  "+sims[i].Name+" ")
		}
		dl, err := harness.MeasureDepLoads(cal, sims...)
		if err != nil {
			return err
		}
		fmt.Fprint(e.out, dl.Rows(6, "hw ", labels...))

		hwTLB, err := cal.HWTLBCycles()
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "TLB refill: hw %.1f cycles", hwTLB)
		for _, cfg := range sims {
			simTLB, err := cal.SimTLBCycles(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(e.out, "   %s %.1f cycles", cfg.Name, simTLB)
		}
		fmt.Fprintln(e.out)

		restart, err := cal.HWRestartNS()
		if err != nil {
			return err
		}
		fmt.Fprintf(e.out, "Restart (independent loads): hw %.0f ns/load\n", restart)
		return nil
	}
}
