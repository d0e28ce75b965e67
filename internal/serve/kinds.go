package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"flashsim/internal/core"
	"flashsim/internal/harness"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
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
	{KindCalibration, "/v1/calibrations", func() (job, any) { j := new(calibrationJob); return j, &j.CalibrationRequest }},
	{KindFigure, "/v1/figures", func() (job, any) { j := new(figureJob); return j, &j.FigureRequest }},
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

// configFingerprint keys non-run jobs: a kind prefix over the config's
// canonical parameter snapshot — the same schema-versioned encoding
// runner.Fingerprint hashes, so dedup stays exactly as sound as the
// memo store's key.
func configFingerprint(kind JobKind, cfg machine.Config) string {
	return string(kind) + ":" + runner.ConfigFingerprint(cfg)
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

// calibrationJob closes the loop for one simulator configuration.
type calibrationJob struct {
	CalibrationRequest
	cfg machine.Config
}

func (j *calibrationJob) timeout() int64 { return j.TimeoutMS }

func (j *calibrationJob) prepare(*Server) (string, int, error) {
	// Calibration probes run at 4 processors like `flashsim tune`; the spec's
	// procs field is accepted but irrelevant, so it is pinned to keep
	// the dedup key canonical.
	j.Procs = 4
	cfg, err := j.Config()
	if err != nil {
		return "", http.StatusBadRequest, fmt.Errorf("config: %w", err)
	}
	j.cfg = cfg
	return configFingerprint(KindCalibration, cfg), 0, nil
}

func (j *calibrationJob) run(_ context.Context, s *Server) (response, bool, error) {
	ref := core.NewReference(4, true)
	ref.Pool = s.pool
	cal, err := core.NewCalibrator(ref).Calibrate(j.cfg)
	if err != nil {
		return nil, false, err
	}
	return CalibrationResponse{Deltas: cal.Deltas, Report: cal.Report, Diff: cal.RenderDiff()}, false, nil
}

// figureJob is one paper figure, run through a scale-shared session.
type figureJob struct{ FigureRequest }

func (j *figureJob) timeout() int64 { return j.TimeoutMS }

func (j *figureJob) prepare(*Server) (string, int, error) {
	if j.Figure < 1 || j.Figure > 7 {
		return "", http.StatusBadRequest, fmt.Errorf("figure %d out of range 1-7", j.Figure)
	}
	return fmt.Sprintf("figure:%d:quick=%v", j.Figure, j.Quick), 0, nil
}

func (j *figureJob) run(_ context.Context, s *Server) (response, bool, error) {
	scale := harness.ScaleFull
	if j.Quick {
		scale = harness.ScaleQuick
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[scale]
	if !ok {
		sess = harness.NewSessionWithPool(scale, s.pool)
		s.sessions[scale] = sess
	}
	exps, err := harness.Find(fmt.Sprintf("figure%d", j.Figure))
	if err != nil {
		return nil, false, fmt.Errorf("unknown figure %d (want 1-7)", j.Figure)
	}
	data, text, err := exps[0].Run(sess)
	if err != nil {
		return nil, false, err
	}
	return FigureResponse{Figure: j.Figure, Text: text, Data: data}, false, nil
}

// captureJob runs a workload execution-driven with a tap into the trace
// store. It carries what admission resolved: the run and the
// container's address.
type captureJob struct {
	CaptureRequest
	job   runner.Job
	trace string
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
	j.job, j.trace = run, runner.TraceFingerprint(run.Config, run.Prog)
	return "capture:" + j.trace, 0, nil
}

// run captures. When the container already exists the simulation still
// runs (through the flight, so it memoizes and coalesces like any run)
// but no second container is written — store once, replay many.
func (j *captureJob) run(ctx context.Context, s *Server) (response, bool, error) {
	cfg, prog, fp := j.job.Config, j.job.Prog, j.trace
	if !s.traces.Has(fp) {
		source, err := json.Marshal(j.Workload)
		if err != nil {
			return nil, false, err
		}
		var res machine.Result
		stored, err := s.traces.Save(fp, func(w io.Writer) error {
			tw, err := trace.NewWriter(w, runner.TraceMeta(cfg, prog, source))
			if err != nil {
				return err
			}
			res, err = machine.RunCapture(cfg, prog, tw)
			return err
		})
		if err != nil {
			return nil, false, err
		}
		if stored {
			return CaptureResponse{Result: res, Trace: fp, Stored: true}, false, nil
		}
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
	// "the trace's thread count"; run resolves it); the memo store
	// underneath keys on the resolved runner.ReplayFingerprint.
	return configFingerprint(KindReplay, cfg) + ":" + j.Trace, 0, nil
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
