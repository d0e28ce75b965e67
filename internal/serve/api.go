// Package serve is the network front end of the stack: a
// simulation-as-a-service daemon layer exposing the runner pool, the
// memo store, the parameter registry and the trace store over HTTP.
// cmd/flashd is a thin main around it.
//
// The server behaves like an inference server, not a batch CLI:
//
//   - admission control — a bounded job queue; a full queue rejects
//     with 429 and a Retry-After header instead of buffering without
//     bound;
//   - request dedup — submissions are keyed by runner.Fingerprint, so
//     identical concurrent requests coalesce onto one record and one
//     pool execution (and identical later requests hit the memo
//     store);
//   - deadlines and cancellation — a request's timeout travels a
//     context chain into the pool, and DELETE cancels a queued job;
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
	"flashsim/internal/workload"
)

// JobKind discriminates what a job computes.
type JobKind string

const (
	KindRun JobKind = "run"
	// KindCapture runs a workload execution-driven while recording its
	// instruction streams into the server's trace store; KindReplay runs
	// a stored capture trace-driven under a chosen configuration. Both
	// require a trace store (flashd -trace-dir).
	KindCapture JobKind = "capture"
	KindReplay  JobKind = "replay"
)

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
	// Fingerprint is the dedup key (runner.Fingerprint for runs).
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
// sorted order, the form stored as a capture's source metadata.
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

// maxProcs bounds the machine a spec may ask for: 8× the largest any
// experiment builds (core.WideSizes), and the registry's own bound on a
// "procs" setting. A machine's memory grows with its processor count
// and running out of it kills the daemon — no recover catches that — so
// the bound is checked here, before a queue slot is taken.
const maxProcs = 1024

// Config materializes the spec through core's constructors and the
// param registry and validates the result: a spec this accepts is one
// machine.New builds.
func (c ConfigSpec) Config() (machine.Config, error) {
	if c.Procs == 0 {
		c.Procs = 1
	}
	if c.Procs < 1 || c.Procs > maxProcs {
		return machine.Config{}, fmt.Errorf("procs %d out of range [1, %d]", c.Procs, maxProcs)
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

// RunResponse is the completed payload of a run job.
type RunResponse struct {
	Job    JobStatus      `json:"job"`
	Result machine.Result `json:"result"`
}

// CaptureRequest submits an execution-driven run of a workload that
// also records its per-thread instruction streams into the server's
// content-addressed trace store (store once, replay many: a capture of
// an already-stored (config, workload) tuple runs the simulation —
// memoized like any run — but writes no second container).
type CaptureRequest struct {
	ConfigSpec
	Workload  WorkloadSpec `json:"workload"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// CaptureResponse is the completed payload of a capture job.
type CaptureResponse struct {
	Job    JobStatus      `json:"job"`
	Result machine.Result `json:"result"`
	// Trace is the container's content address (runner.TraceFingerprint)
	// in the server's trace store; pass it to a ReplayRequest.
	Trace string `json:"trace"`
	// Stored is false when the container already existed.
	Stored bool `json:"stored"`
}

// ReplayRequest submits a trace-driven run: the capture identified by
// Trace is replayed on the machine described by the config spec. The
// workload (and thread count) come from the container.
type ReplayRequest struct {
	ConfigSpec
	// Trace is a capture's content-address fingerprint, from a
	// CaptureResponse (or flashtrace capture -store).
	Trace     string `json:"trace"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ReplayResponse is the completed payload of a replay job.
type ReplayResponse struct {
	Job      JobStatus      `json:"job"`
	Result   machine.Result `json:"result"`
	Trace    string         `json:"trace"`
	Workload string         `json:"workload"`
}

// response is a finished job's payload: one of the three *Response
// structs, which share nothing but the status they are sent under.
// withJob returns the payload carrying st — a copy, since one record's
// payload answers every submission that joined it, each under its own
// status.
type response interface {
	withJob(st JobStatus) response
}

func (r RunResponse) withJob(st JobStatus) response     { r.Job = st; return r }
func (r CaptureResponse) withJob(st JobStatus) response { r.Job = st; return r }
func (r ReplayResponse) withJob(st JobStatus) response  { r.Job = st; return r }

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterS echoes the Retry-After header on 429s.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}
