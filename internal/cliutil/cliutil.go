// Package cliutil is the command-line plumbing under cmd/flashsim's
// subcommands and cmd/flashd: one flag block with one canonical
// description per knob — -jobs and -cache-dir (the runner pool),
// -cpuprofile/-memprofile/-trace (pprof and execution-trace artifacts),
// -metrics-out (the per-run observability report of internal/obs) —
// and the lifecycle around it: Finish validates, Pool builds the
// runner, ExitOnSignal and Close flush the artifacts. The commands that
// build a machine configuration add the override block
// (RegisterOverridesOn: -config and -set through the internal/param
// registry, and -list-params), and those that build a program the
// workload block (RegisterWorkloadOn); CaptureRun and LoadReplay are
// the two ends of the trace tool chain.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"flashsim/internal/machine"
	"flashsim/internal/obs"
	"flashsim/internal/param"
	"flashsim/internal/runner"
)

// Canonical help text for the shared flags; cmd mains must not
// re-declare these flags with local wording.
const (
	jobsUsage       = "simulation runs to execute in parallel"
	cacheDirUsage   = "persist memoized run results in this directory"
	cacheMaxUsage   = "evict least-recently-used -cache-dir entries beyond this size (bytes, or with a KiB/MiB/GiB suffix; 0 = unbounded)"
	configUsage     = "apply machine-parameter overrides from this JSON file (a param snapshot or a bare {\"path\": value} object)"
	setUsage        = "override one machine parameter as path=value (repeatable; see -list-params)"
	listParamsUsage = "print the tunable-parameter registry and exit"
	cpuProfileUsage = "write a CPU profile to this file (go tool pprof)"
	memProfileUsage = "write an allocation profile to this file on exit (go tool pprof)"
	traceUsage      = "write a runtime execution trace to this file (go tool trace)"
	metricsOutUsage = "write the aggregated per-run metrics report (obs.Report JSON) to this file on exit"
)

// Flags carries the shared flag values after flag.Parse.
type Flags struct {
	Jobs       int
	CacheDir   string
	CacheMax   sizeFlag
	ConfigFile string
	ListParams bool
	CPUProfile string
	MemProfile string
	TraceFile  string
	MetricsOut string

	sets     stringList
	settings []param.Setting
	snapshot *param.Snapshot

	cpuFile   *os.File
	traceFile *os.File

	collector *obs.Collector
	pool      *runner.Pool
	store     *runner.Store
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// RegisterOn installs the pool and artifact flags on fs, which every
// command takes. Call before fs.Parse, then Finish after it.
func RegisterOn(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Jobs, "jobs", runner.DefaultWorkers(), jobsUsage)
	fs.StringVar(&f.CacheDir, "cache-dir", "", cacheDirUsage)
	fs.Var(&f.CacheMax, "cache-max-bytes", cacheMaxUsage)
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", cpuProfileUsage)
	fs.StringVar(&f.MemProfile, "memprofile", "", memProfileUsage)
	fs.StringVar(&f.TraceFile, "trace", "", traceUsage)
	fs.StringVar(&f.MetricsOut, "metrics-out", "", metricsOutUsage)
	return f
}

// RegisterOverridesOn adds the machine-override flags to fs: -config,
// -set and -list-params. Only a command that builds a configuration and
// passes it through Apply takes them; on any other they would be
// accepted and ignored.
func (f *Flags) RegisterOverridesOn(fs *flag.FlagSet) {
	fs.StringVar(&f.ConfigFile, "config", "", configUsage)
	fs.Var(&f.sets, "set", setUsage)
	fs.BoolVar(&f.ListParams, "list-params", false, listParamsUsage)
}

// Finish validates the parsed flags: -config is loaded, and every -set
// is checked against the registry (unknown paths, unparseable values,
// and bounds violations fail here, before any simulation runs). Without
// the override block those checks have nothing to check.
func (f *Flags) Finish() error {
	if f.CacheMax > 0 && f.CacheDir == "" {
		return fmt.Errorf("-cache-max-bytes bounds the on-disk cache and needs -cache-dir; without one the in-memory store is unbounded")
	}
	if f.ConfigFile != "" {
		data, err := os.ReadFile(f.ConfigFile)
		if err != nil {
			return fmt.Errorf("-config: %w", err)
		}
		snap, err := param.ParseSnapshot(data)
		if err != nil {
			return fmt.Errorf("-config %s: %w", f.ConfigFile, err)
		}
		// Surface unknown paths and bad values now, not mid-sweep.
		if _, err := param.ApplySnapshot(machine.Base(1, true), snap); err != nil {
			return fmt.Errorf("-config %s: %w", f.ConfigFile, err)
		}
		f.snapshot = &snap
	}
	f.settings = f.settings[:0]
	for _, raw := range f.sets {
		s, err := param.ParseSetting(raw)
		if err != nil {
			return fmt.Errorf("-set %s: %w", raw, err)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("-set %s: %w", raw, err)
		}
		f.settings = append(f.settings, s)
	}
	return f.startProfiling()
}

// List prints the parameter registry to out if -list-params was given
// and reports whether it did. The command then has nothing else to do
// and returns through its normal path, so Close still runs.
func (f *Flags) List(out io.Writer) bool {
	if f.ListParams {
		fmt.Fprint(out, param.Describe())
	}
	return f.ListParams
}

// startProfiling opens the -cpuprofile and -trace sinks. The matching
// Close writes -memprofile and stops both; mains defer it right after
// Finish.
func (f *Flags) startProfiling() error {
	if f.CPUProfile != "" {
		fh, err := os.Create(f.CPUProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(fh); err != nil {
			fh.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		f.cpuFile = fh
	}
	if f.TraceFile != "" {
		fh, err := os.Create(f.TraceFile)
		if err != nil {
			f.stopCPUProfile()
			return fmt.Errorf("-trace: %w", err)
		}
		if err := trace.Start(fh); err != nil {
			fh.Close()
			f.stopCPUProfile()
			return fmt.Errorf("-trace: %w", err)
		}
		f.traceFile = fh
	}
	return nil
}

func (f *Flags) stopCPUProfile() {
	if f.cpuFile == nil {
		return
	}
	pprof.StopCPUProfile()
	f.cpuFile.Close()
	f.cpuFile = nil
}

// Close finalizes the run artifacts: it writes the -metrics-out report,
// reports a -cache-dir entry that could not be written, stops the CPU
// profile and execution trace, and writes the -memprofile heap snapshot
// (after a GC, so it reflects live steady-state memory, the figure the
// allocation regression tests pin). Safe to call when no artifact flag
// was given. Error paths that exit through log.Fatal skip it, which
// loses at most a partial artifact.
func (f *Flags) Close() error {
	sinkErr := errors.Join(f.writeMetrics(), f.cacheErr())
	f.stopCPUProfile()
	if f.traceFile != nil {
		trace.Stop()
		f.traceFile.Close()
		f.traceFile = nil
	}
	if f.MemProfile != "" {
		fh, err := os.Create(f.MemProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer fh.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(fh, 0); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return sinkErr
}

// Apply returns cfg with the -config snapshot and then every -set
// override applied, in order. It is a no-op without overrides, so it is safe to install
// unconditionally as a Session override hook.
func (f *Flags) Apply(cfg machine.Config) (machine.Config, error) {
	var err error
	if f.snapshot != nil {
		cfg, err = param.ApplySnapshot(cfg, *f.snapshot)
		if err != nil {
			return cfg, err
		}
	}
	return param.ApplySettings(cfg, f.settings)
}

// Pool builds the runner pool and memoizing store the flags describe.
// When -metrics-out is set, a metrics collector is attached to the pool
// and its report is written by Close.
func (f *Flags) Pool() (*runner.Pool, *runner.Store, error) {
	store, err := runner.NewBoundedStore(f.CacheDir, int64(f.CacheMax))
	if err != nil {
		return nil, nil, fmt.Errorf("cache: %w", err)
	}
	pool := runner.New(f.Jobs, store)
	if f.MetricsOut != "" {
		f.collector = obs.NewCollector()
		pool.SetMetrics(f.collector)
	}
	f.pool, f.store = pool, store
	return pool, store, nil
}

// cacheErr reports the first -cache-dir entry the store could not
// write. The run went on without it (the result was served from
// memory), but the directory does not hold what the run computed.
func (f *Flags) cacheErr() error {
	if f.store == nil {
		return nil
	}
	if err := f.store.Err(); err != nil {
		return fmt.Errorf("cache %s: %w", f.store.Dir(), err)
	}
	return nil
}

// writeMetrics writes the -metrics-out report. A no-op when the flag is
// unset or no pool was ever built (e.g. the command failed during flag
// validation).
func (f *Flags) writeMetrics() error {
	if f.MetricsOut == "" || f.collector == nil {
		return nil
	}
	rep := f.collector.Snapshot()
	if f.pool != nil {
		rep.Runner = f.pool.Stats().Counters()
	}
	if err := rep.WriteFile(f.MetricsOut); err != nil {
		return fmt.Errorf("-metrics-out: %w", err)
	}
	return nil
}
