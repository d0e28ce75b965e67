package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"flashsim/internal/runner"
)

// job is one submission on its way through the server: the request its
// kind's route decoded, plus whatever prepare resolved from it. The
// three methods are everything that differs between kinds; submit,
// admit and execute handle every job alike.
type job interface {
	// prepare checks the decoded request against the server and
	// resolves what run will need. It returns the dedup key the job is
	// admitted under, or the status and error the submission is refused
	// with — before a queue slot is taken.
	prepare(s *Server) (fp string, status int, err error)
	// timeout is the request's timeout_ms.
	timeout() int64
	// run computes the job's payload on a worker; cached reports that
	// it came from the memo store.
	run(ctx context.Context, s *Server) (resp response, cached bool, err error)
}

// kind is one row of the job table: a name, a route, and the type a
// submission becomes — new returns a fresh job and the request inside
// it that the body decodes into.
type kind struct {
	name JobKind
	path string
	new  func() (job, any)
}

// kinds is the job table. A new kind is one row here, its request and
// response in api.go, and its job type below.
var kinds = []kind{
	{KindRun, "/v1/runs", func() (job, any) { j := new(runJob); return j, &j.RunRequest }},
	{KindCapture, "/v1/captures", func() (job, any) { j := new(captureJob); return j, &j.CaptureRequest }},
	{KindReplay, "/v1/replays", func() (job, any) { j := new(replayJob); return j, &j.ReplayRequest }},
}

// simulation resolves a config spec and a workload spec to the run they
// describe, naming the half that was wrong.
func simulation(c ConfigSpec, w WorkloadSpec) (runner.Job, error) {
	cfg, err := c.Config()
	if err != nil {
		return runner.Job{}, fmt.Errorf("config: %w", err)
	}
	prog, err := w.Program(cfg.Procs)
	if err != nil {
		return runner.Job{}, fmt.Errorf("workload: %w", err)
	}
	return runner.Job{Config: cfg, Prog: prog}, nil
}

// errNoTraceStore refuses capture and replay submissions on a server
// started without one.
var errNoTraceStore = errors.New("no trace store configured (start flashd with -trace-dir)")

// runJob is one simulation run.
type runJob struct {
	RunRequest
	job runner.Job
}

func (j *runJob) timeout() int64 { return j.TimeoutMS }

func (j *runJob) prepare(*Server) (string, int, error) {
	run, err := simulation(j.ConfigSpec, j.Workload)
	if err != nil {
		return "", http.StatusBadRequest, err
	}
	// Keyed once, here: admission, flight and pool all read this key.
	j.job = run.Keyed()
	return j.job.Fingerprint(), 0, nil
}

func (j *runJob) run(ctx context.Context, s *Server) (response, bool, error) {
	out, _ := s.flight.Run(ctx, j.job)
	if out.Err != nil {
		return nil, false, out.Err
	}
	return RunResponse{Result: out.Result}, out.Cached, nil
}

// captureJob runs a workload execution-driven with a tap into the trace
// store. It carries the run admission resolved.
type captureJob struct {
	CaptureRequest
	job runner.Job
}

func (j *captureJob) timeout() int64 { return j.TimeoutMS }

func (j *captureJob) prepare(s *Server) (string, int, error) {
	if s.traces == nil {
		return "", http.StatusBadRequest, errNoTraceStore
	}
	run, err := simulation(j.ConfigSpec, j.Workload)
	if err != nil {
		return "", http.StatusBadRequest, err
	}
	j.job = run
	return "capture:" + runner.TraceFingerprint(run.Config, run.Prog), 0, nil
}

// run captures. When the container already exists the simulation still
// runs (through the flight, so it memoizes and coalesces like any run)
// but no second container is written — store once, replay many.
func (j *captureJob) run(ctx context.Context, s *Server) (response, bool, error) {
	source, err := json.Marshal(j.Workload)
	if err != nil {
		return nil, false, err
	}
	res, fp, stored, err := s.traces.Capture(j.job.Config, j.job.Prog, source)
	if err != nil {
		return nil, false, err
	}
	if stored {
		return CaptureResponse{Result: res, Trace: fp, Stored: true}, false, nil
	}
	// Already captured: serve the result like a plain run (memoized when
	// the pool has a store) and point at the existing container.
	out, _ := s.flight.Run(ctx, j.job)
	if out.Err != nil {
		return nil, false, out.Err
	}
	return CaptureResponse{Result: out.Result, Trace: fp, Stored: false}, out.Cached, nil
}

// replayJob runs a stored capture trace-driven under the request's
// configuration.
type replayJob struct{ ReplayRequest }

func (j *replayJob) timeout() int64 { return j.TimeoutMS }

func (j *replayJob) prepare(s *Server) (string, int, error) {
	if s.traces == nil {
		return "", http.StatusBadRequest, errNoTraceStore
	}
	if j.Trace == "" {
		return "", http.StatusBadRequest, errors.New("trace fingerprint missing")
	}
	if !s.traces.Has(j.Trace) {
		return "", http.StatusNotFound, fmt.Errorf("no trace %q in the store (capture it first)", j.Trace)
	}
	cfg, err := j.Config()
	if err != nil {
		return "", http.StatusBadRequest, fmt.Errorf("config: %w", err)
	}
	// The dedup key covers the requested spec verbatim (procs 0 means
	// "the trace's thread count"; run resolves it) through the canonical
	// encoding runner.Fingerprint hashes; the memo store underneath keys
	// on the resolved runner.ReplayFingerprint.
	return "replay:" + runner.ConfigFingerprint(cfg) + ":" + j.Trace, 0, nil
}

// run loads (or reuses) the prepared image of the requested trace and
// runs it trace-driven through the flight, memoizing under
// ReplayFingerprint.
func (j *replayJob) run(ctx context.Context, s *Server) (response, bool, error) {
	img, err := s.replayImage(j.Trace)
	if err != nil {
		return nil, false, err
	}
	spec := j.ConfigSpec
	if spec.Procs == 0 {
		// The machine must match the trace's thread count; default to it
		// rather than ConfigSpec's one-processor default.
		spec.Procs = img.Threads()
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, false, fmt.Errorf("config: %w", err)
	}
	out, _ := s.flight.Run(ctx, runner.Job{Config: cfg, Replay: img})
	if out.Err != nil {
		return nil, false, out.Err
	}
	return ReplayResponse{Result: out.Result, Trace: j.Trace, Workload: img.Workload()}, out.Cached, nil
}
