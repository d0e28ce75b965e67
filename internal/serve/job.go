package serve

import (
	"context"
	"sync"
	"time"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
)

// jobRecord is the server-side state of one accepted job. Identical
// concurrent run submissions share one record (admission-level dedup),
// so a record may have many waiters and subscribers.
type jobRecord struct {
	id   string
	kind JobKind
	// fp is the dedup key: runner.Fingerprint for runs, a kind-prefixed
	// derivation for calibrations and figures.
	fp string

	// ctx governs the job through queue wait and execution; cancel is
	// invoked by DELETE, drain-abort, or the request timeout.
	ctx    context.Context
	cancel context.CancelFunc

	// What to execute, per kind; a run's job arrives keyed (fp is its key).
	job    runner.Job     // KindRun, KindCapture
	source WorkloadSpec   // KindCapture: recorded in the container
	trace  string         // KindCapture: the container's address
	calCfg machine.Config // KindCalibration
	figure FigureRequest  // KindFigure
	replay ReplayRequest  // KindReplay

	mu      sync.Mutex
	status  JobStatus
	payload any // RunResponse / CalibrationResponse / FigureResponse
	subs    []chan JobStatus
	done    chan struct{}
}

func newJobRecord(id string, kind JobKind, fp string, ctx context.Context, cancel context.CancelFunc) *jobRecord {
	return &jobRecord{
		id:     id,
		kind:   kind,
		fp:     fp,
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

// transition applies mutate to the status under the lock and fans the
// new snapshot out to subscribers. Sends never block: a subscriber that
// falls behind misses intermediate states, not the terminal one (the
// events handler re-reads the final status on done).
func (j *jobRecord) transition(mutate func(*JobStatus)) {
	j.mu.Lock()
	mutate(&j.status)
	snap := j.status
	subs := j.subs
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- snap:
		default:
		}
	}
}

// start marks the job running.
func (j *jobRecord) start() {
	j.transition(func(s *JobStatus) {
		s.State = StateRunning
		s.StartedMS = time.Now().UnixMilli()
	})
}

// finish records the terminal state, attaches the payload, and releases
// every waiter.
func (j *jobRecord) finish(state JobState, errMsg string, cached bool, payload any) {
	j.mu.Lock()
	j.status.State = state
	j.status.Error = errMsg
	j.status.Cached = cached
	j.status.FinishedMS = time.Now().UnixMilli()
	j.payload = payload
	snap := j.status
	subs := j.subs
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- snap:
		default:
		}
	}
	close(j.done)
	j.cancel()
}

// subscribe registers a status channel and returns it along with the
// current snapshot.
func (j *jobRecord) subscribe() (chan JobStatus, JobStatus) {
	ch := make(chan JobStatus, 16)
	j.mu.Lock()
	j.subs = append(j.subs, ch)
	snap := j.status
	j.mu.Unlock()
	return ch, snap
}

// unsubscribe removes a channel registered by subscribe.
func (j *jobRecord) unsubscribe(ch chan JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// Payload returns the terminal payload (nil before finish).
func (j *jobRecord) Payload() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.payload
}
