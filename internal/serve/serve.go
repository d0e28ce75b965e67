package serve

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flashsim/internal/obs"
	"flashsim/internal/runner"
)

// Options configures a Server.
type Options struct {
	// Pool executes every job; required. Attach a Store for memoized
	// results across requests and restarts.
	Pool *runner.Pool
	// QueueDepth bounds the number of accepted-but-unstarted jobs
	// (default 64). The server runs one job per pool worker on top of
	// this, so accepted work is at most QueueDepth+Pool.Workers() jobs.
	QueueDepth int
	// RetryAfter is the backpressure hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration
}

// Server is the HTTP front end: a bounded job queue feeding the runner
// pool, with fingerprint dedup, per-job cancellation, and Prometheus
// metrics. Create with New, expose with Handler, stop with Drain
// (graceful) or Close (abort).
type Server struct {
	pool       *runner.Pool
	collector  *obs.Collector
	queueDepth int
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
}

// New returns a running server (workers started, ready for Handler).
func New(opts Options) *Server {
	if opts.Pool == nil {
		panic("serve: Options.Pool is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		pool:       opts.Pool,
		queueDepth: opts.QueueDepth,
		retryAfter: opts.RetryAfter,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *jobRecord, opts.QueueDepth),
		jobs:       make(map[string]*jobRecord),
		fpIndex:    make(map[string]*jobRecord),
	}
	// Every outcome the pool produces is recorded, so /metrics always
	// has data; a collector attached by the caller (e.g. -metrics-out)
	// is reused so the scrape and the file report agree.
	if opts.Pool.Metrics() == nil {
		opts.Pool.SetMetrics(obs.NewCollector())
	}
	s.collector = opts.Pool.Metrics()
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < s.pool.Workers(); i++ {
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

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for rec := range s.queue {
		s.execute(rec)
	}
}

// execute runs one job to its terminal state: the gate, a context
// check, then the run through the pool, which memoizes it. A record
// that dies waiting for a pool slot never simulates; one that dies
// mid-run answers at once and frees its worker, while the simulation
// (it has no preemption points) finishes on its own goroutine.
func (s *Server) execute(rec *jobRecord) {
	defer s.retire(rec)
	if s.execGate != nil {
		s.execGate(rec)
	}
	if err := rec.ctx.Err(); err != nil {
		rec.finish(runner.Outcome{Err: err})
		return
	}
	rec.start()
	done := make(chan runner.Outcome, 1)
	go func() { done <- s.pool.RunOne(rec.ctx, rec.job) }()
	select {
	case out := <-done:
		rec.finish(out)
	case <-rec.ctx.Done():
		rec.finish(runner.Outcome{Err: rec.ctx.Err()})
	}
}

// admit performs admission control for one keyed run: dedup against
// active identical jobs, then a non-blocking enqueue into the bounded
// queue. timeoutMS (0 = none) bounds the job's wait. Returns the
// (possibly shared) record and whether this submission coalesced onto an
// existing job — or the status it is turned away with: 503 while
// draining, 429 when the queue is full.
func (s *Server) admit(run runner.Job, timeoutMS int64) (rec *jobRecord, coalesced bool, refused int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.refused.Add(1)
		return nil, false, http.StatusServiceUnavailable
	}
	var deadline time.Time // zero = wait as long as it takes
	if timeoutMS > 0 {
		deadline = time.Now().Add(time.Duration(timeoutMS) * time.Millisecond)
	}
	fp := run.Fingerprint()
	// A record that has finished but not yet been retired (finish
	// releases its waiters first) is not active: a resubmission racing
	// that window is a new job, and a hit on the memo store. Nor is a
	// record joined that gives up before this submission would — its
	// deadline is a stranger's. That one gets its own record below (and
	// the index, so later submissions find the more patient of the
	// two). If the other is running already, this one runs again, to
	// the same deterministic result (a memo hit on a one-worker pool).
	if twin, ok := s.fpIndex[fp]; ok && !twin.Status().State.Terminal() && twin.outwaits(deadline) {
		s.coalesced.Add(1)
		return twin, true, 0
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(s.baseCtx)
	} else {
		ctx, cancel = context.WithDeadline(s.baseCtx, deadline)
	}
	s.nextID++
	rec = newJobRecord(fmt.Sprintf("j%06d", s.nextID), run, ctx, cancel)
	select {
	case s.queue <- rec:
	default:
		cancel()
		s.nextID--
		s.rejected.Add(1)
		return nil, false, http.StatusTooManyRequests
	}
	s.jobs[rec.id] = rec
	s.fpIndex[fp] = rec
	s.accepted.Add(1)
	return rec, false, 0
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
	if fp := rec.job.Fingerprint(); s.fpIndex[fp] == rec {
		delete(s.fpIndex, fp)
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
