package param_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/serve"
)

// TestWarmRunEncodesConfigOnce drives the daemon's warm path end to end
// — decode, key, admit, pool, store hit, respond — and counts
// canonical encodings: a job is keyed where it is admitted and nothing
// downstream encodes its configuration again. (The test lives with the
// encoder because the counter is this package's test hook.)
func TestWarmRunEncodesConfigOnce(t *testing.T) {
	// Installed before the server starts any goroutine and removed after
	// the last one has gone, so the hook itself is never raced on.
	var encodings atomic.Int64
	param.SetEncodeHook(func() { encodings.Add(1) })
	defer param.SetEncodeHook(nil)

	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{Pool: runner.New(1, store)})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run := func() serve.RunResponse {
		t.Helper()
		body := `{"base":"simos-mipsy","procs":1,"seed":3,"workload":{"name":"snbench.restart","lines":32}}`
		resp, err := http.Post(ts.URL+"/v1/runs?wait=true", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("run: status %d, err %v, body %s", resp.StatusCode, err, data)
		}
		var out serve.RunResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if cold := run(); cold.Job.Cached {
		t.Fatal("first run reported cached")
	}
	if n := encodings.Load(); n != 1 {
		t.Errorf("a cold run encoded its configuration %d times, want 1", n)
	}
	encodings.Store(0)
	warm := run()
	if !warm.Job.Cached {
		t.Fatal("second run missed the memo store")
	}
	if n := encodings.Load(); n != 1 {
		t.Errorf("a warm run encoded its configuration %d times, want 1", n)
	}
}
