// Command flashsim is the one command-line front end to the library:
// single runs, the paper's evaluation (the calibration loop included:
// the tuning, table3 and tlb rows), and the trace tool chain are
// subcommands sharing one flag block (internal/cliutil) and one setup
// and teardown.
//
//	flashsim run -app fft -procs 4                 # one workload on one machine (default: the hardware reference)
//	flashsim run -app ocean -sim solo-mipsy -mhz 225 -set os.tlb.handler_cycles=65
//	flashsim run -app gups -p hot_pct=50 -procs 32
//	flashsim run -list-workloads                   # registry: names, parameters
//
//	flashsim validate -quick figure1 tlb           # rows of the experiment table (no names: list it)
//	flashsim validate -all -jobs 8 -cache-dir .flashcache
//	flashsim worksweep -quick -json WORKLOAD_SWEEP_2026-08-07.json
//
//	flashsim validate -quick tuning table3 tlb     # close the loop: fits, what they absorbed, microbenchmarks
//
//	flashsim trace capture -app fft -procs 4 -o fft.fltr
//	flashsim trace inspect fft.fltr
//	flashsim trace replay -sim simos-mipsy fft.fltr
//
// Every subcommand takes -jobs, -cache-dir, -metrics-out and the
// profiling flags, and every one but trace inspect -config and -set;
// `flashsim <subcommand> -h` prints them. An artifact that cannot be
// written is an error: the command reports it and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"flashsim/internal/cliutil"
	"flashsim/internal/core"
	"flashsim/internal/harness"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// command is one subcommand: setup registers its own flags on fs (next
// to the shared block, already registered as cf) and returns the body
// to run once the environment is up.
type command struct {
	name    string
	summary string
	setup   func(fs *flag.FlagSet, cf *cliutil.Flags) func(*env) error
	// configless commands build no machine configuration, so they take
	// no -config/-set.
	configless bool
}

var commands = []command{
	{name: "run", summary: "run one workload on one machine configuration and print the detailed result", setup: runCmd},
	{name: "validate", summary: "run rows of the experiment table, by name or -all", setup: validateCmd},
	{name: "worksweep", summary: "the worksweep experiment over a chosen workload × size matrix, with a JSON report", setup: worksweepCmd},
	{name: "trace capture", summary: "run a workload execution-driven and record its streams", setup: captureCmd},
	{name: "trace inspect", summary: "print a container's metadata, layout, and integrity status", setup: inspectCmd, configless: true},
	{name: "trace replay", summary: "run a captured trace trace-driven on a chosen machine", setup: replayCmd},
}

// flags registers c's whole flag set on fs — the shared block, the
// override block unless c is configless, and c's own — and returns the
// shared values and c's body.
func (c *command) flags(fs *flag.FlagSet) (*cliutil.Flags, func(*env) error) {
	cf := cliutil.RegisterOn(fs)
	if !c.configless {
		cf.RegisterOverridesOn(fs)
	}
	return cf, c.setup(fs, cf)
}

// env is what the one setup hands a subcommand body.
type env struct {
	cf    *cliutil.Flags
	pool  *runner.Pool
	store *runner.Store
	args  []string // positional arguments
	out   io.Writer
}

// usageError marks a mistake in how the command was invoked (exit 2)
// as opposed to a run that failed (exit 1).
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// run is the whole CLI: resolve the subcommand, parse its flags, bring
// the environment up, run the body, tear down. It returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd, args := lookup(args)
	if cmd == nil {
		status := 2
		switch name {
		case "":
		case "help", "-h", "-help", "--help":
			status = 0
		default:
			fmt.Fprintf(stderr, "flashsim: unknown subcommand %q\n", name)
		}
		fmt.Fprintln(stderr, "usage: flashsim <subcommand> [flags] [arguments]")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-14s %s\n", c.name, c.summary)
		}
		return status
	}

	fs := flag.NewFlagSet("flashsim "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf, body := cmd.flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "flashsim %s: %v\n", cmd.name, err)
		if errors.As(err, &usageError{}) {
			return 2
		}
		return 1
	}
	if err := cf.Finish(); err != nil {
		return fail(usageError{err})
	}
	// An interrupt flushes the same artifacts Close does, then exits.
	stop := cf.ExitOnSignal()
	defer stop()

	// -list-params prints the registry in place of the body.
	pool, store, err := cf.Pool()
	if err == nil && !cf.List(stdout) {
		err = body(&env{cf: cf, pool: pool, store: store, args: fs.Args(), out: stdout})
		if st := pool.Stats(); st.Jobs > 0 {
			fmt.Fprintf(stdout, "[runner: %s]\n", st)
		}
	}
	// Close runs on the error path too: a failed study still leaves its
	// profile and the metrics of what did run.
	if cerr := cf.Close(); err == nil {
		err = cerr
	} else if cerr != nil {
		fmt.Fprintf(stderr, "flashsim %s: %v\n", cmd.name, cerr)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// lookup resolves the subcommand that args name ("trace" takes the word
// after it too) and returns the name, the command (nil when none has
// it) and the arguments after the name.
func lookup(args []string) (string, *command, []string) {
	name := ""
	if len(args) > 0 {
		name, args = args[0], args[1:]
	}
	if name == "trace" && len(args) > 0 {
		name, args = "trace "+args[0], args[1:]
	}
	for i := range commands {
		if commands[i].name == name {
			return name, &commands[i], args
		}
	}
	return name, nil, args
}

// specFlags registers -sim and -mhz on fs: the machine half of the
// spec a run, capture or replay builds its configuration from.
func specFlags(fs *flag.FlagSet, def string) *core.ConfigSpec {
	spec := &core.ConfigSpec{}
	fs.StringVar(&spec.Base, "sim", def, strings.Join(core.ConfigNames, ", "))
	fs.IntVar(&spec.MHz, "mhz", 150, "Mipsy clock (150, 225, 300; hw and simos-mxs run at 150)")
	return spec
}

// machineConfig resolves spec as flashd resolves a request's, the
// model's own seed included, and applies the -config/-set overrides. A
// spec that names no machine is a usage error; unlike a request's, its
// processor count is always given, so 0 is refused, not defaulted.
func machineConfig(cf *cliutil.Flags, spec *core.ConfigSpec) (machine.Config, error) {
	if err := core.CheckProcs(spec.Procs); err != nil {
		return machine.Config{}, usagef("-procs: %v", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return cfg, usageError{err}
	}
	return cf.Apply(cfg)
}

// session builds the evaluation session over the environment's pool
// with the parameter overrides routed into every simulator.
func (e *env) session(quick bool) *harness.Session {
	scale := harness.ScaleFull
	if quick {
		scale = harness.ScaleQuick
	}
	s := harness.NewSessionWithPool(scale, e.pool)
	s.Override = e.cf.Apply
	return s
}

// experiment runs one row of the table and prints its text block.
func (e *env) experiment(s *harness.Session, x harness.Experiment) (data any, wall time.Duration, err error) {
	t0 := time.Now()
	data, text, err := x.Run(s)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", x.Name, err)
	}
	wall = time.Since(t0)
	fmt.Fprintf(e.out, "%s\n[%s took %v]\n\n", text, x.Name, wall.Round(time.Millisecond))
	return data, wall, nil
}

func validateCmd(fs *flag.FlagSet, _ *cliutil.Flags) func(*env) error {
	all := fs.Bool("all", false, "run every row of the experiment table")
	quick := fs.Bool("quick", false, "use reduced problem sizes")
	return func(e *env) error {
		exps, err := harness.Find(e.args...)
		if err != nil {
			return usageError{err}
		}
		if *all {
			exps = harness.Experiments
		}
		if len(exps) == 0 {
			var table strings.Builder
			for _, x := range harness.Experiments {
				fmt.Fprintf(&table, "\n  %-10s %s", x.Name, x.Title)
			}
			return usagef("name the experiments to run, or -all:%s", &table)
		}
		s := e.session(*quick)
		for _, x := range exps {
			if _, _, err := e.experiment(s, x); err != nil {
				return err
			}
		}
		return nil
	}
}

// worksweepReport is the committed WORKLOAD_SWEEP_<date>.json evidence: the
// widened trend study, plus enough provenance to rerun it.
type worksweepReport struct {
	Date      string                     `json:"date"`
	Scale     string                     `json:"scale"`
	Sizes     []int                      `json:"sizes"`
	Workloads []string                   `json:"workloads"`
	Trend     []harness.WorkloadTrendRow `json:"trend"`
	WallMS    float64                    `json:"wall_ms"`
}

// worksweepCmd is `flashsim worksweep`: the table's worksweep row over
// a chosen matrix, optionally written as the JSON evidence file.
func worksweepCmd(fs *flag.FlagSet, _ *cliutil.Flags) func(*env) error {
	names := fs.String("workloads", strings.Join(harness.SweepWorkloads, ","), "comma-separated registry workload names")
	sizes := fs.String("sizes", "", "comma-separated node counts (default 32,64,128)")
	quick := fs.Bool("quick", false, "use the registry's quick problem sizes")
	jsonOut := fs.String("json", "", "write the sweep report as JSON to this file")
	date := fs.String("date", time.Now().Format("2006-01-02"), "date stamp recorded in the report")
	return func(e *env) error {
		s := e.session(*quick)
		commaOrSpace := func(r rune) bool { return r == ',' || r == ' ' }
		for _, n := range strings.FieldsFunc(*names, commaOrSpace) {
			if _, err := workload.Lookup(n); err != nil {
				return usageError{err}
			}
			s.SweepNames = append(s.SweepNames, n)
		}
		for _, v := range strings.FieldsFunc(*sizes, commaOrSpace) {
			n, err := strconv.Atoi(v)
			if err != nil {
				return usagef("-sizes: %v", err)
			}
			if err := core.CheckProcs(n); err != nil {
				return usagef("-sizes: %v", err)
			}
			s.SweepSizes = append(s.SweepSizes, n)
		}
		exps, err := harness.Find("worksweep")
		if err != nil {
			return err
		}
		data, wall, err := e.experiment(s, exps[0])
		if err != nil || *jsonOut == "" {
			return err
		}
		d := data.(harness.WorkloadSweepData)
		rep := worksweepReport{
			Date:      *date,
			Scale:     "full",
			Sizes:     d.Sizes,
			Workloads: s.SweepNames,
			Trend:     d.Trend,
			WallMS:    float64(wall.Microseconds()) / 1e3,
		}
		if *quick {
			rep.Scale = "quick"
		}
		return writeJSON(e.out, *jsonOut, rep)
	}
}

// writeJSON writes v indented to path and says so.
func writeJSON(out io.Writer, path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
