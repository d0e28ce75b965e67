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
	"fmt"

	"flashsim/internal/core"
	"flashsim/internal/machine"
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

// WorkloadSpec is a request's workload: {"name": …, <parameter>: …}
// against the workload registry, full-scale defaults for the rest.
type WorkloadSpec = workload.Spec

// Workload builds a spec; params may be nil for all-defaults.
func Workload(name string, params map[string]any) WorkloadSpec {
	return WorkloadSpec{Name: name, Params: params}
}

// ConfigSpec is a request's machine: {base, mhz, procs, seed, set}.
type ConfigSpec = core.ConfigSpec

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
