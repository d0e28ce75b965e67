package cliutil

import (
	"flag"
	"fmt"
	"io"

	"flashsim/internal/emitter"
	"flashsim/internal/param"
	"flashsim/internal/workload"
)

// Canonical help text for the shared workload flags.
const (
	appUsage           = "workload name from the registry (see -list-workloads)"
	paramsUsage        = "set one workload parameter as key=value (repeatable; see -list-workloads)"
	fullUsage          = "full (1/16-paper) problem sizes; -full=false selects the quick sizes"
	listWorkloadsUsage = "print the workload registry and exit"
)

// WorkloadFlags is the workload-selection flag block shared by the
// front ends that build a program: -app names a registry entry, -p
// assigns its parameters, -full switches between the full and quick
// default sizes.
type WorkloadFlags struct {
	App  string
	Full bool

	listWorkloads bool
	params        stringList
}

// RegisterWorkloadOn installs the workload flags on fs.
func RegisterWorkloadOn(fs *flag.FlagSet) *WorkloadFlags {
	w := &WorkloadFlags{}
	fs.StringVar(&w.App, "app", "fft", appUsage)
	fs.Var(&w.params, "p", paramsUsage)
	fs.BoolVar(&w.Full, "full", true, fullUsage)
	fs.BoolVar(&w.listWorkloads, "list-workloads", false, listWorkloadsUsage)
	return w
}

// List prints the workload registry to out if -list-workloads was
// given and reports whether it did, like Flags.List.
func (w *WorkloadFlags) List(out io.Writer) bool {
	if w.listWorkloads {
		fmt.Fprint(out, workload.Describe())
	}
	return w.listWorkloads
}

// Finish validates -app/-p against the registry, so bad selections fail
// before any simulation starts.
func (w *WorkloadFlags) Finish() error {
	_, _, err := w.Resolve()
	return err
}

// Resolve looks the selection up in the registry and validates the -p
// assignments against its schema.
func (w *WorkloadFlags) Resolve() (*workload.Definition, workload.Values, error) {
	raw := make(map[string]any, len(w.params))
	for _, kv := range w.params {
		s, err := param.ParseSetting(kv)
		if err != nil {
			return nil, nil, fmt.Errorf("-p %s: want key=value", kv)
		}
		raw[s.Path] = s.Value
	}
	return workload.Spec{Name: w.App, Params: raw}.Resolve(!w.Full)
}

// Program builds the selected program at the given thread count, plus
// its spec with every parameter resolved, the workload a trace
// container records as its source.
func (w *WorkloadFlags) Program(procs int) (emitter.Program, workload.Spec, error) {
	def, vals, err := w.Resolve()
	if err != nil {
		return emitter.Program{}, workload.Spec{}, err
	}
	return def.Build(vals, procs), workload.Spec{Name: def.Name, Params: vals}, nil
}
