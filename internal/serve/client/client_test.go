package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flashsim/internal/machine"
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

// TestClientRunEqualsDirectRun: what client.Run decodes is the Result
// machine.Run gives for the same job, Metrics and BarrierReleases
// included, whether the run was simulated for the request or served
// from the memo store.
func TestClientRunEqualsDirectRun(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	_, c := newPair(t, serve.Options{Pool: runner.New(1, store)})
	req := serve.RunRequest{
		ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy", Procs: 2},
		Workload:   serve.Workload("fft", map[string]any{"logn": 8}),
	}
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := req.Workload.Program(cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := machine.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.BarrierReleases) == 0 || direct.Metrics.L2.Misses == 0 {
		t.Fatalf("the direct run carries no barriers or no L2 misses: %+v", direct)
	}
	for _, cached := range []bool{false, true} {
		resp, err := c.Run(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Job.Cached != cached {
			t.Fatalf("job %s: cached %v, want %v", resp.Job.ID, resp.Job.Cached, cached)
		}
		if !reflect.DeepEqual(resp.Result, direct) {
			t.Errorf("cached=%v: client.Run decoded\n%+v\nmachine.Run gave\n%+v", cached, resp.Result, direct)
		}
	}
}

// TestClientKeepsOneConnection: a client reads every body to its end,
// so ten runs on one client travel over the one keep-alive connection.
func TestClientKeepsOneConnection(t *testing.T) {
	s := serve.New(serve.Options{Pool: runner.New(1, nil)})
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	tr := &http.Transport{}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = s.Drain(ctx)
	})
	c := client.New(ts.URL, &http.Client{Transport: tr})
	for i := 0; i < 10; i++ {
		if _, err := c.Run(t.Context(), restartReq(8)); err != nil {
			t.Fatal(err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("ten runs on one client opened %d connections, want 1", n)
	}
}

// TestClientErrorBodiesAreAPIErrors: the server's non-2xx answers — a
// refused submission and an unknown job — come back as APIErrors that
// carry the status and the server's own message.
func TestClientErrorBodiesAreAPIErrors(t *testing.T) {
	_, c := newPair(t, serve.Options{})
	for _, call := range []struct {
		what   string
		err    error
		status int
		msg    string
	}{
		{"an unknown workload", func() error {
			_, err := c.Run(t.Context(), serve.RunRequest{
				ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy"},
				Workload:   serve.Workload("no-such-workload", nil),
			})
			return err
		}(), http.StatusBadRequest, "workload: "},
		{"an unknown job", func() error {
			_, err := c.Job(t.Context(), "j999999")
			return err
		}(), http.StatusNotFound, `no job "j999999"`},
	} {
		var apiErr *client.APIError
		if !errors.As(call.err, &apiErr) {
			t.Errorf("%s: error %v is not an APIError", call.what, call.err)
			continue
		}
		if apiErr.Status != call.status || !strings.HasPrefix(apiErr.Message, call.msg) {
			t.Errorf("%s: HTTP %d %q, want %d starting %q", call.what, apiErr.Status, apiErr.Message, call.status, call.msg)
		}
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
// through client.Run, the httptest server, admission, the pool, the
// store and both JSON codecs. The count is every goroutine's
// (AllocsPerRun reads the process-wide counter). With five hand-written
// submit handlers it read 235; with admission the one coalescing layer
// 217; with compact bodies, read whole and decoded in one Unmarshal,
// and keys assembled in reused buffers it reads 192, and may not come
// to cost more than two objects over that: served-mix's allocs_per_op
// bound is 2.5 objects per request.
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
	if got > 194 {
		t.Errorf("a warm run allocates %.0f objects, want at most 194", got)
	}
}
