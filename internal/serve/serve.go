package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flashsim/internal/core"
	"flashsim/internal/harness"
	"flashsim/internal/machine"
	"flashsim/internal/obs"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Pool executes every job; required. Attach a Store for memoized
	// results across requests and restarts.
	Pool *runner.Pool
	// QueueDepth bounds the number of accepted-but-unstarted jobs
	// (default 64). The running jobs on top of this are bounded by
	// Workers, so accepted work is at most QueueDepth+Workers jobs.
	QueueDepth int
	// Workers is how many jobs execute concurrently (default
	// Pool.Workers()). Simulation parallelism inside a figure or
	// calibration job still belongs to the pool.
	Workers int
	// RetryAfter is the backpressure hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// Traces, when non-nil, enables the capture and replay endpoints:
	// captures store containers here, replays load them (flashd
	// -trace-dir). Without it those submissions are rejected with 400.
	Traces *runner.TraceStore
}

// Server is the HTTP front end: a bounded job queue feeding the runner
// pool, with fingerprint dedup, per-job cancellation, SSE status
// streaming, and Prometheus metrics. Create with New, expose with
// Handler, stop with Drain (graceful) or Close (abort).
type Server struct {
	pool       *runner.Pool
	collector  *obs.Collector
	flight     *runner.Flight
	queueDepth int
	workers    int
	retryAfter time.Duration
	mux        *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *jobRecord
	workersWG  sync.WaitGroup

	// mu guards admission state: draining, the job registry, the
	// dedup index, and the enqueue itself (so Drain can close the
	// queue without racing a submit). finished is the registry's
	// finished jobs, oldest first, at most jobRetention of them.
	mu       sync.Mutex
	draining bool
	jobs     map[string]*jobRecord
	finished []*jobRecord
	fpIndex  map[string]*jobRecord
	nextID   int64

	accepted  atomic.Int64
	rejected  atomic.Int64 // queue-full 429s
	refused   atomic.Int64 // draining 503s
	coalesced atomic.Int64 // admission-level dedup joins

	// execGate, when non-nil, is called at the top of every job
	// execution. Tests set it (before submitting anything) to hold
	// workers at a known point until they choose to release them; it is
	// nil in production.
	execGate func(*jobRecord)

	// sessMu serializes figure jobs: a harness.Session caches
	// calibrations in a plain map and is not safe for concurrent use.
	// The runs inside a figure still fan out across the pool.
	sessMu   sync.Mutex
	sessions map[harness.Scale]*harness.Session

	// traces is the content-addressed container store backing capture
	// and replay jobs (nil = endpoints disabled). images memoizes
	// prepared replay images by trace fingerprint — decode once, replay
	// many across requests; entries are bounded by the number of
	// distinct stored traces.
	traces *runner.TraceStore
	imgMu  sync.Mutex
	images map[string]func() (*machine.ReplayImage, error)
}

// New returns a running server (workers started, ready for Handler).
func New(opts Options) *Server {
	if opts.Pool == nil {
		panic("serve: Options.Pool is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = opts.Pool.Workers()
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		pool:       opts.Pool,
		queueDepth: opts.QueueDepth,
		workers:    opts.Workers,
		retryAfter: opts.RetryAfter,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *jobRecord, opts.QueueDepth),
		jobs:       make(map[string]*jobRecord),
		fpIndex:    make(map[string]*jobRecord),
		sessions:   make(map[harness.Scale]*harness.Session),
		traces:     opts.Traces,
		images:     make(map[string]func() (*machine.ReplayImage, error)),
	}
	// Every outcome the pool produces is recorded, so /metrics always
	// has data; a collector attached by the caller (e.g. -metrics-out)
	// is reused so the scrape and the file report agree.
	if opts.Pool.Metrics() == nil {
		opts.Pool.SetMetrics(obs.NewCollector())
	}
	s.collector = opts.Pool.Metrics()
	s.flight = runner.NewFlight(opts.Pool, ctx)
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < s.workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool returns the server's pool.
func (s *Server) Pool() *runner.Pool { return s.pool }

// Collector returns the metrics collector the server records into.
func (s *Server) Collector() *obs.Collector { return s.collector }

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admissions (new submissions get 503) and waits for every
// accepted job to reach a terminal state. If ctx expires first, the
// remaining jobs are cancelled (queued ones terminate as canceled;
// running simulations finish their current run) and Drain waits for
// the workers before returning ctx's error. Status and result
// endpoints keep serving throughout, so clients can still collect what
// they were promised; shutting the listener down afterwards is the
// caller's job (flashd: Drain, then http.Server.Shutdown).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return fmt.Errorf("drain aborted: %w", ctx.Err())
	}
}

// Close aborts everything: admissions stop, queued and in-flight jobs
// are cancelled. For tests and error paths; production shutdown is
// Drain.
func (s *Server) Close() {
	s.baseCancel()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for rec := range s.queue {
		s.execute(rec)
	}
}

// execute runs one job to its terminal state.
func (s *Server) execute(rec *jobRecord) {
	defer s.retire(rec)
	if s.execGate != nil {
		s.execGate(rec)
	}
	if err := rec.ctx.Err(); err != nil {
		rec.finish(StateCanceled, err.Error(), false, nil)
		return
	}
	rec.start()
	switch rec.kind {
	case KindRun:
		out, _ := s.flight.Run(rec.ctx, rec.job)
		if out.Err != nil {
			rec.finish(failState(out.Err), out.Err.Error(), false, nil)
			return
		}
		st := rec.Status()
		st.State = StateDone
		st.Cached = out.Cached
		rec.finish(StateDone, "", out.Cached, RunResponse{Job: st, Result: out.Result})
	case KindCalibration:
		cal, err := s.calibrate(rec.calCfg)
		if err != nil {
			rec.finish(failState(err), err.Error(), false, nil)
			return
		}
		st := rec.Status()
		st.State = StateDone
		rec.finish(StateDone, "", false, CalibrationResponse{
			Job: st, Deltas: cal.Deltas, Report: cal.Report, Diff: cal.RenderDiff(),
		})
	case KindFigure:
		text, data, err := s.runFigure(rec.figure)
		if err != nil {
			rec.finish(failState(err), err.Error(), false, nil)
			return
		}
		st := rec.Status()
		st.State = StateDone
		rec.finish(StateDone, "", false, FigureResponse{Job: st, Figure: rec.figure.Figure, Text: text, Data: data})
	case KindCapture:
		resp, cached, err := s.runCapture(rec)
		if err != nil {
			rec.finish(failState(err), err.Error(), false, nil)
			return
		}
		st := rec.Status()
		st.State = StateDone
		st.Cached = cached
		resp.Job = st
		rec.finish(StateDone, "", cached, resp)
	case KindReplay:
		resp, cached, err := s.runReplay(rec.ctx, rec.replay)
		if err != nil {
			rec.finish(failState(err), err.Error(), false, nil)
			return
		}
		st := rec.Status()
		st.State = StateDone
		st.Cached = cached
		resp.Job = st
		rec.finish(StateDone, "", cached, resp)
	default:
		rec.finish(StateFailed, fmt.Sprintf("unknown job kind %q", rec.kind), false, nil)
	}
}

// failState maps an execution error to canceled (context death) or
// failed (everything else).
func failState(err error) JobState {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return StateCanceled
	}
	return StateFailed
}

// calibrate closes the loop for one simulator configuration.
func (s *Server) calibrate(cfg machine.Config) (core.Calibration, error) {
	ref := core.NewReference(4, true)
	ref.Pool = s.pool
	return core.NewCalibrator(ref).Calibrate(cfg)
}

// runFigure executes one paper figure through a scale-shared session.
func (s *Server) runFigure(req FigureRequest) (string, any, error) {
	scale := harness.ScaleFull
	if req.Quick {
		scale = harness.ScaleQuick
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[scale]
	if !ok {
		sess = harness.NewSessionWithPool(scale, s.pool)
		s.sessions[scale] = sess
	}
	exps, err := harness.Find(fmt.Sprintf("figure%d", req.Figure))
	if err != nil {
		return "", nil, fmt.Errorf("unknown figure %d (want 1-7)", req.Figure)
	}
	data, text, err := exps[0].Run(sess)
	return text, data, err
}

// runCapture executes one capture job: run the workload
// execution-driven with a tap into the trace store. When the container
// already exists the simulation still runs (through the flight, so it
// memoizes and coalesces like any run) but no second container is
// written — store once, replay many. The record carries what admission
// resolved: the run (rec.job) and the container's address (rec.trace).
func (s *Server) runCapture(rec *jobRecord) (CaptureResponse, bool, error) {
	cfg, prog, fp := rec.job.Config, rec.job.Prog, rec.trace
	if !s.traces.Has(fp) {
		source, err := json.Marshal(rec.source)
		if err != nil {
			return CaptureResponse{}, false, err
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
			return CaptureResponse{}, false, err
		}
		if stored {
			return CaptureResponse{Result: res, Trace: fp, Stored: true}, false, nil
		}
	}
	// Already captured: serve the result like a plain run (memoized when
	// the pool has a store) and point at the existing container.
	out, _ := s.flight.Run(rec.ctx, rec.job)
	if out.Err != nil {
		return CaptureResponse{}, false, out.Err
	}
	return CaptureResponse{Result: out.Result, Trace: fp, Stored: false}, out.Cached, nil
}

// runReplay executes one replay job: load (or reuse) the prepared image
// for the requested trace and run it trace-driven through the flight,
// memoizing under ReplayFingerprint.
func (s *Server) runReplay(ctx context.Context, req ReplayRequest) (ReplayResponse, bool, error) {
	img, err := s.replayImage(req.Trace)
	if err != nil {
		return ReplayResponse{}, false, err
	}
	if req.Procs == 0 {
		// The machine must match the trace's thread count; default to it
		// rather than ConfigSpec's one-processor default.
		req.Procs = img.Threads()
	}
	cfg, err := req.Config()
	if err != nil {
		return ReplayResponse{}, false, fmt.Errorf("config: %w", err)
	}
	out, _ := s.flight.Run(ctx, runner.Job{Config: cfg, Replay: img})
	if out.Err != nil {
		return ReplayResponse{}, false, out.Err
	}
	return ReplayResponse{Result: out.Result, Trace: req.Trace, Workload: img.Workload()}, out.Cached, nil
}

// replayImage returns the prepared replay image for a stored trace,
// decoding it at most once per server lifetime (the cache grows at most
// one entry per distinct stored container). imgMu covers the map only:
// the read and the prepare run under the entry's once, so one trace is
// prepared once and nobody waits behind another trace's prepare. A
// failed prepare leaves the map, to be retried.
func (s *Server) replayImage(fp string) (*machine.ReplayImage, error) {
	s.imgMu.Lock()
	load := s.images[fp]
	if load == nil {
		load = sync.OnceValues(func() (*machine.ReplayImage, error) {
			img, err := s.prepareImage(fp)
			if err != nil {
				s.imgMu.Lock()
				delete(s.images, fp)
				s.imgMu.Unlock()
			}
			return img, err
		})
		s.images[fp] = load
	}
	s.imgMu.Unlock()
	return load()
}

func (s *Server) prepareImage(fp string) (*machine.ReplayImage, error) {
	if !s.traces.Has(fp) {
		return nil, fmt.Errorf("no trace %q in the store (capture it first)", fp)
	}
	tr, err := s.traces.Load(fp)
	if err != nil {
		return nil, err
	}
	return machine.PrepareReplay(tr)
}

// admitError classifies a rejected submission.
type admitError int

const (
	admitOK admitError = iota
	admitDraining
	admitFull
)

// admit performs admission control for one submission: dedup against
// active identical jobs, then a non-blocking enqueue into the bounded
// queue. Returns the (possibly shared) record, whether this submission
// coalesced onto an existing job, and the rejection class.
func (s *Server) admit(kind JobKind, fp string, timeoutMS int64, fill func(*jobRecord)) (*jobRecord, bool, admitError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.refused.Add(1)
		return nil, false, admitDraining
	}
	// A record that has finished but not yet been retired (finish
	// releases its waiters first) is not active: a resubmission racing
	// that window is a new job, and a hit on the memo store.
	if rec, ok := s.fpIndex[fp]; ok && !rec.Status().State.Terminal() {
		s.coalesced.Add(1)
		return rec, true, admitOK
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(timeoutMS)*time.Millisecond)
	}
	s.nextID++
	rec := newJobRecord(fmt.Sprintf("j%06d", s.nextID), kind, fp, ctx, cancel)
	fill(rec)
	select {
	case s.queue <- rec:
	default:
		cancel()
		s.nextID--
		s.rejected.Add(1)
		return nil, false, admitFull
	}
	s.jobs[rec.id] = rec
	s.fpIndex[fp] = rec
	s.accepted.Add(1)
	return rec, false, admitOK
}

// jobRetention is how many finished jobs stay answerable by id; without
// a bound the registry, and every GC cycle's marking of it, grow with
// every job the daemon has ever served.
const jobRetention = 1024

// retire drops a finished job from the dedup index and files it among
// the finished jobs the registry still answers for. Beyond jobRetention
// the one that finished first leaves, and its id answers 404 like one
// never issued; a job still queued or running is never dropped.
func (s *Server) retire(rec *jobRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fpIndex[rec.fp] == rec {
		delete(s.fpIndex, rec.fp)
	}
	s.finished = append(s.finished, rec)
	if len(s.finished) > jobRetention {
		delete(s.jobs, s.finished[0].id)
		s.finished = slices.Delete(s.finished, 0, 1)
	}
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*jobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	return rec, ok
}

// configFingerprint keys non-run jobs: a kind prefix over the config's
// canonical parameter snapshot — the same schema-versioned encoding
// runner.Fingerprint hashes, so dedup stays exactly as sound as the
// memo store's key.
func configFingerprint(kind JobKind, cfg machine.Config) string {
	return string(kind) + ":" + runner.ConfigFingerprint(cfg)
}
