package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/serve/client"
)

func newPair(t *testing.T, opts serve.Options) (*serve.Server, *client.Client) {
	t.Helper()
	if opts.Pool == nil {
		opts.Pool = runner.New(2, nil)
	}
	s := serve.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		// A Drain whose context has already expired cancels every job
		// and waits for the workers.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = s.Drain(ctx)
	})
	return s, client.New(ts.URL, nil)
}

func restartReq(lines int) serve.RunRequest {
	return serve.RunRequest{
		ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy"},
		Workload:   serve.Workload("snbench.restart", map[string]any{"lines": lines}),
	}
}

// TestClientRunAndWatch drives the full client surface against a live
// server: synchronous run, async submit + status polling, job listing,
// result fetch, health, and metrics.
func TestClientRunAndWatch(t *testing.T) {
	_, c := newPair(t, serve.Options{})
	ctx := t.Context()

	run, err := c.Run(ctx, restartReq(32))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Job.State != serve.StateDone || run.Result.Instructions == 0 {
		t.Fatalf("Run returned %+v", run.Job)
	}

	st, err := c.SubmitRun(ctx, restartReq(64))
	if err != nil {
		t.Fatalf("SubmitRun: %v", err)
	}
	for !st.State.Terminal() {
		time.Sleep(2 * time.Millisecond)
		if st, err = c.Job(ctx, st.ID); err != nil {
			t.Fatalf("Job: %v", err)
		}
	}
	if st.State != serve.StateDone {
		t.Errorf("polling ended with state %s: %s", st.State, st.Error)
	}

	res, err := c.RunResult(ctx, st.ID)
	if err != nil || res.Result.Instructions == 0 {
		t.Errorf("RunResult: %+v, %v", res.Job, err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 2 {
		t.Errorf("Jobs: %d jobs, %v", len(jobs), err)
	}
	if h, err := c.Health(ctx); err != nil || h != "ok" {
		t.Errorf("Health: %q, %v", h, err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil || metrics == "" {
		t.Errorf("Metrics: %d bytes, %v", len(metrics), err)
	}
}

// TestClientSurfacesBackpressure: a 429 rejection (the wire shape the
// serve package's queue-full tests pin) decodes into a typed APIError
// carrying the Retry-After hint. A stub server makes the rejection
// deterministic; the real server's side of the contract is
// TestServerQueueFullRejectsWith429.
func TestClientSurfacesBackpressure(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "job queue full (1 queued); retry later", RetryAfterS: 3})
	}))
	defer stub.Close()

	_, err := client.New(stub.URL, nil).SubmitRun(t.Context(), restartReq(8))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit error not an APIError: %v", err)
	}
	if !apiErr.IsBusy() || apiErr.RetryAfter != 3*time.Second {
		t.Errorf("backpressure error = %+v, want busy with 3s retry", apiErr)
	}
	if !strings.Contains(apiErr.Message, "queue full") {
		t.Errorf("error body not decoded: %q", apiErr.Message)
	}
}

// TestWarmRunAllocations pins what a memo hit costs end to end in one
// process: a warm POST /v1/runs?wait=true — served-mix's request —
// through client.Run, the httptest server, admission, the flight, the
// store and both JSON codecs. The count is every goroutine's
// (AllocsPerRun reads the process-wide counter). With five hand-written
// submit handlers it read 235; the one path reads 235 too, and may not
// come to cost more than two objects over that: served-mix's
// allocs_per_op bound is 2.5 objects per request.
func TestWarmRunAllocations(t *testing.T) {
	// The race detector's sync.Pool drops a quarter of what is put in it,
	// so net/http and encoding/json allocate what they otherwise reuse.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are pinned without -race")
			}
		}
	}
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	_, c := newPair(t, serve.Options{Pool: runner.New(1, store)})
	ctx := t.Context()
	req := serve.RunRequest{
		ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy", Procs: 1, Seed: 1},
		Workload:   serve.Workload("fft", map[string]any{"logn": 8}),
	}
	if _, err := c.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if resp, err := c.Run(ctx, req); err != nil || !resp.Job.Cached {
			t.Fatalf("warm run: cached %v, err %v", resp.Job.Cached, err)
		}
	})
	t.Logf("a warm run allocates %.0f objects", got)
	if got > 237 {
		t.Errorf("a warm run allocates %.0f objects, want at most 237", got)
	}
}
