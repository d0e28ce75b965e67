package runner

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flight coalesces concurrent submissions of identical jobs onto one
// execution. Two jobs are identical when their Fingerprints match —
// the same schema-versioned canonical-config hash the memo Store keys
// on — so coalescing has exactly the soundness of the store: it merges
// submissions only when machine.Run is guaranteed to produce the same
// Result for both.
//
// The store dedups across time (a result computed yesterday serves
// today's request); Flight dedups across space (ten clients asking for
// the same uncached run right now trigger one machine.Run, not ten).
// A serving front end needs both: without in-flight coalescing, a
// thundering herd on a cold key pays the full run once per request and
// only then starts hitting cache.
//
// Cancellation is per-waiter with refcounting: each caller waits under
// its own context, and the underlying run is cancelled only when every
// caller that joined it has abandoned. One impatient client hanging up
// must not kill a run nine other clients are still waiting on.
type Flight struct {
	pool *Pool
	// base is the parent context of every execution the flight starts;
	// cancelling it aborts all in-flight runs (server hard-stop).
	base context.Context

	mu       sync.Mutex
	inflight map[string]*flightCall

	coalesced atomic.Int64
}

// flightCall is one in-flight execution and its interested waiters.
type flightCall struct {
	done   chan struct{}
	out    Outcome
	refs   int
	cancel context.CancelFunc
}

// NewFlight returns a flight executing through pool. base bounds the
// lifetime of every run the flight starts (nil = context.Background());
// per-caller contexts passed to Run only govern how long that caller
// waits.
func NewFlight(pool *Pool, base context.Context) *Flight {
	if base == nil {
		base = context.Background()
	}
	return &Flight{pool: pool, base: base, inflight: make(map[string]*flightCall)}
}

// Pool returns the flight's pool.
func (f *Flight) Pool() *Pool { return f.pool }

// Coalesced returns how many Run calls joined an execution some other
// caller had already started.
func (f *Flight) Coalesced() int64 { return f.coalesced.Load() }

// Run executes j through the pool, joining an identical in-flight
// execution if one exists. The bool reports whether this call coalesced
// onto a run it did not start. If ctx dies while waiting, Run returns
// ctx's error; the run itself is cancelled only when the last waiter
// leaves. A job without a key (a replay of an unaddressed image, which
// always executes) has no identity to share: it runs alone.
func (f *Flight) Run(ctx context.Context, j Job) (Outcome, bool) {
	j = j.Keyed() // the pool below reuses the key

	f.mu.Lock()
	if c, ok := f.inflight[j.key]; ok {
		c.refs++
		f.mu.Unlock()
		f.coalesced.Add(1)
		return f.wait(ctx, c), true
	}
	runCtx, cancel := context.WithCancel(f.base)
	c := &flightCall{done: make(chan struct{}), refs: 1, cancel: cancel}
	if j.key != "" {
		f.inflight[j.key] = c
	}
	f.mu.Unlock()

	// The execution runs on its own goroutine so the caller that
	// started it can still abandon early (its wait below returns on
	// ctx.Done) without orphaning the other waiters.
	go func() {
		out := f.pool.RunOne(runCtx, j)
		f.mu.Lock()
		c.out = out
		delete(f.inflight, j.key)
		f.mu.Unlock()
		close(c.done)
		cancel()
	}()
	return f.wait(ctx, c), false
}

// wait blocks until c completes or ctx dies. An abandoning waiter drops
// its reference; the last one out cancels the execution.
func (f *Flight) wait(ctx context.Context, c *flightCall) Outcome {
	select {
	case <-c.done:
		return c.out
	case <-ctx.Done():
		f.mu.Lock()
		c.refs--
		last := c.refs == 0
		f.mu.Unlock()
		if last {
			c.cancel()
		}
		return Outcome{Err: ctx.Err()}
	}
}
