package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// jobRecord is the server-side state of one accepted job. Identical
// concurrent submissions share one record (admission-level dedup), so a
// record may have many waiters.
type jobRecord struct {
	id string
	// fp is the dedup key: runner.Fingerprint for runs, a kind-prefixed
	// derivation for captures and replays.
	fp string

	// ctx governs the job through queue wait and execution; cancel is
	// invoked by DELETE, drain-abort, or the request timeout.
	ctx    context.Context
	cancel context.CancelFunc

	// job is what to execute: the decoded, prepared submission.
	job job

	mu      sync.Mutex
	status  JobStatus
	payload response
	done    chan struct{}
}

func newJobRecord(id string, kind JobKind, fp string, j job, ctx context.Context, cancel context.CancelFunc) *jobRecord {
	return &jobRecord{
		id:     id,
		fp:     fp,
		job:    j,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: JobStatus{
			ID:          id,
			Kind:        kind,
			State:       StateQueued,
			Fingerprint: fp,
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

// finish records how the job's run came out — done with its payload,
// or canceled or failed with err — and releases every waiter.
func (j *jobRecord) finish(payload response, cached bool, err error) {
	j.mu.Lock()
	j.status.State = StateDone
	if err != nil {
		j.status.State, j.status.Error = failState(err), err.Error()
	}
	j.status.Cached = cached
	j.status.FinishedMS = time.Now().UnixMilli()
	j.payload = payload
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

// Payload returns the terminal payload (nil before finish).
func (j *jobRecord) Payload() response {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.payload
}
