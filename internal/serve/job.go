package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"flashsim/internal/runner"
)

// jobRecord is the server-side state of one accepted job. Identical
// concurrent submissions share one record (admission-level dedup), so a
// record may have many waiters.
type jobRecord struct {
	id string
	// job is the keyed run to execute; its Fingerprint is the dedup key.
	job runner.Job

	// ctx governs the job through queue wait and execution; cancel is
	// invoked by DELETE, drain-abort, or the request timeout, which is
	// ctx's deadline.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	status  JobStatus
	payload RunResponse
	done    chan struct{}
}

func newJobRecord(id string, job runner.Job, ctx context.Context, cancel context.CancelFunc) *jobRecord {
	return &jobRecord{
		id:     id,
		job:    job,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: JobStatus{
			ID:          id,
			Kind:        KindRun,
			State:       StateQueued,
			Fingerprint: job.Fingerprint(),
			SubmittedMS: time.Now().UnixMilli(),
		},
	}
}

// Status returns a snapshot of the job's status.
func (j *jobRecord) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// outwaits reports whether the record will wait at least until
// deadline (zero = forever) before its own context gives up.
func (j *jobRecord) outwaits(deadline time.Time) bool {
	own, bounded := j.ctx.Deadline()
	return !bounded || !deadline.IsZero() && !deadline.After(own)
}

// start marks the job running.
func (j *jobRecord) start() {
	j.mu.Lock()
	j.status.State = StateRunning
	j.status.StartedMS = time.Now().UnixMilli()
	j.mu.Unlock()
}

// finish records how the job's run came out — done with its result,
// or canceled or failed with out.Err — and releases every waiter.
func (j *jobRecord) finish(out runner.Outcome) {
	j.mu.Lock()
	j.status.State = StateDone
	if out.Err != nil {
		j.status.State, j.status.Error = failState(out.Err), out.Err.Error()
	} else {
		j.status.Cached = out.Cached
		j.payload.Result = out.Result
	}
	j.status.FinishedMS = time.Now().UnixMilli()
	j.mu.Unlock()
	close(j.done)
	j.cancel()
}

// failState maps an execution error to canceled (context death) or
// failed (everything else).
func failState(err error) JobState {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return StateCanceled
	}
	return StateFailed
}

// Payload returns the terminal payload carrying st. It is a copy: one
// record's payload answers every submission that joined it, each under
// its own status.
func (j *jobRecord) Payload(st JobStatus) RunResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.payload
	p.Job = st
	return p
}
