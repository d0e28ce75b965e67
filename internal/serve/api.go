// Package serve is the network front end of the stack: a
// simulation-as-a-service daemon layer exposing the runner pool, the
// memo store and the parameter registry over HTTP. It serves one job
// kind, an execution-driven run. cmd/flashd is a thin main around it.
//
// The server behaves like an inference server, not a batch CLI:
//
//   - admission control — a bounded job queue; a full queue rejects
//     with 429 and a Retry-After header instead of buffering without
//     bound;
//   - request dedup — submissions are keyed by runner.Fingerprint, so
//     identical concurrent requests coalesce onto one job record, which
//     runs once (and identical later requests hit the memo store);
//   - deadlines and cancellation — a request's timeout and DELETE end
//     the job's wait, queued or running; a started run still finishes
//     and is memoized;
//   - graceful drain — Drain stops admissions (503), lets every
//     accepted job finish, and leaves results fetchable until
//     shutdown.
package serve

import (
	"encoding/json"
	"fmt"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/workload"
)

// JobKind names what a job computes on the wire.
type JobKind string

// KindRun is the one kind: a simulation run.
const KindRun JobKind = "run"

// JobState is a job's lifecycle position.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the poll view of one job.
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	// Fingerprint is the dedup key, the run's runner.Fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached reports the result came from the memo store; Coalesced
	// that this submission joined an already-active identical job.
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	// Timestamps are Unix milliseconds; zero = not reached yet.
	SubmittedMS int64 `json:"submitted_ms,omitempty"`
	StartedMS   int64 `json:"started_ms,omitempty"`
	FinishedMS  int64 `json:"finished_ms,omitempty"`
}

// WorkloadSpec selects a program from the workload registry: a name
// plus parameter assignments. Omitted parameters take the workload's
// registered full-scale defaults; unknown names and parameters are
// rejected against the registry's schemas. On the wire the spec is
// flat — {"name": "fft", "logn": 12} — exactly what a human writes in
// a flashd job file.
type WorkloadSpec struct {
	Name   string
	Params map[string]any
}

// Workload builds a spec; params may be nil for all-defaults.
func Workload(name string, params map[string]any) WorkloadSpec {
	return WorkloadSpec{Name: name, Params: params}
}

// MarshalJSON renders the canonical flat object with parameters in
// sorted order, the form UnmarshalJSON reads.
func (w WorkloadSpec) MarshalJSON() ([]byte, error) {
	return workload.EncodeSpec(w.Name, w.Params)
}

// UnmarshalJSON accepts the flat wire object. Validation happens at
// Program time, against the registry schema — here only the shape is
// checked, so decode errors and parameter errors stay distinguishable.
func (w *WorkloadSpec) UnmarshalJSON(data []byte) error {
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	name, _ := raw["name"].(string)
	delete(raw, "name")
	w.Name = name
	if len(raw) > 0 {
		w.Params = raw
	} else {
		w.Params = nil
	}
	return nil
}

// Program builds the workload at the given thread count via the
// registry.
func (w WorkloadSpec) Program(procs int) (emitter.Program, error) {
	def, err := workload.Lookup(w.Name)
	if err != nil {
		return emitter.Program{}, err
	}
	vals, err := def.Resolve(w.Params, false)
	if err != nil {
		return emitter.Program{}, err
	}
	return def.Build(vals, procs), nil
}

// ConfigSpec selects a simulator configuration: a named base plus
// param-registry deltas, the same {base, set} shape the CLIs express
// with -sim/-set.
type ConfigSpec struct {
	// Base is hw, simos-mipsy, simos-mxs, or solo-mipsy.
	Base string `json:"base"`
	// MHz is the Mipsy clock (default 150; ignored by hw and mxs).
	MHz int `json:"mhz,omitempty"`
	// Procs is the processor count (default 1).
	Procs int `json:"procs,omitempty"`
	// Seed overrides the configuration's jitter seed when nonzero.
	Seed uint64 `json:"seed,omitempty"`
	// Set is the parameter-override list, validated against the
	// registry exactly like the CLIs' -set flags.
	Set []param.Setting `json:"set,omitempty"`
}

// Config materializes the spec through core's constructors and the
// param registry and validates the result: a spec this accepts is one
// machine.New builds.
func (c ConfigSpec) Config() (machine.Config, error) {
	if c.Procs == 0 {
		c.Procs = 1
	}
	// The registry bounds procs at 8× the largest machine any experiment
	// builds (core.WideSizes). A machine's memory grows with its
	// processor count and running out of it kills the daemon — no
	// recover catches that — so the bound is checked here, before a
	// queue slot is taken.
	p, _ := param.Lookup("procs")
	if _, err := param.Coerce(p.Kind, p.Min, p.Max, nil, c.Procs); err != nil {
		return machine.Config{}, fmt.Errorf("procs: %v", err)
	}
	if c.MHz == 0 {
		c.MHz = 150
	}
	switch c.Base {
	case "":
		return machine.Config{}, fmt.Errorf("base config missing")
	case "flash":
		c.Base = "hw"
	}
	cfg, err := core.ConfigByName(c.Base, c.Procs, c.MHz, true)
	if err != nil {
		return machine.Config{}, err
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if cfg, err = param.ApplySettings(cfg, c.Set); err != nil {
		return machine.Config{}, err
	}
	return cfg, cfg.Validate()
}

// RunRequest submits one simulation run.
type RunRequest struct {
	ConfigSpec
	Workload WorkloadSpec `json:"workload"`
	// TimeoutMS bounds the job's queue-wait + start; 0 = no deadline.
	// A run already executing is not preempted (the event loop has no
	// preemption points), so this bounds waiting, not simulating.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// job resolves the request to the run it describes, naming the half of
// the spec that was wrong; a fixed-thread kernel (snbench's) on another
// processor count is wrong. The run is keyed once, here: admission and
// the pool both read that key.
func (r RunRequest) job() (runner.Job, error) {
	cfg, err := r.Config()
	if err != nil {
		return runner.Job{}, fmt.Errorf("config: %w", err)
	}
	prog, err := r.Workload.Program(cfg.Procs)
	if err != nil {
		return runner.Job{}, fmt.Errorf("workload: %w", err)
	}
	if prog.Threads != cfg.Procs {
		return runner.Job{}, fmt.Errorf("workload: program %s has %d threads but machine has %d processors",
			prog.FullName(), prog.Threads, cfg.Procs)
	}
	return runner.Job{Config: cfg, Prog: prog}.Keyed(), nil
}

// RunResponse is the completed payload of a run job.
type RunResponse struct {
	Job    JobStatus      `json:"job"`
	Result machine.Result `json:"result"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterS echoes the Retry-After header on 429s.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}
