package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"flashsim/internal/runner"
)

// TestJobTableIsBounded: the registry keeps the jobRetention jobs that
// finished last and every unfinished one. The first job is held at the
// gate — admitted, queued, older than everything else — while the other
// worker finishes jobRetention+50 more: the fifty oldest finished ids
// must answer 404 on every per-job endpoint, the rest 200, the held job
// must still be there, and GET /v1/jobs must list what is left in
// submission order.
func TestJobTableIsBounded(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(2, store)
	s := New(Options{Pool: pool, Workers: 2})
	const heldID = "j000001"
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	s.execGate = func(rec *jobRecord) {
		if rec.id == heldID {
			<-hold
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		release()
		ts.Close()
		stop(s)
	})

	resp, data := postJSON(t, ts.URL+"/v1/runs", runBody(8))
	var held JobStatus
	if err := json.Unmarshal(data, &held); err != nil || resp.StatusCode != http.StatusAccepted || held.ID != heldID {
		t.Fatalf("held submission: status %d, err %v, body %s", resp.StatusCode, err, data)
	}

	// Four distinct runs, then memo hits of them: finished jobs all the
	// same to the registry, and quick.
	const distinct, finished = 4, jobRetention + 50
	ids := make([]string, finished)
	for i := range ids {
		resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", runBody(16+8*(i%distinct)))
		var run RunResponse
		if err := json.Unmarshal(data, &run); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d, err %v, body %s", i, resp.StatusCode, err, data)
		}
		ids[i] = run.Job.ID
	}
	// A response is written before its job retires; the last one is
	// filed once its worker has moved on.
	waitFor(t, "the last job to retire", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.finished) == jobRetention && len(s.jobs) == jobRetention+1
	})

	listed := func() []string {
		t.Helper()
		var list struct {
			Jobs []JobStatus `json:"jobs"`
		}
		getJSON(t, ts.URL+"/v1/jobs", &list)
		out := make([]string, len(list.Jobs))
		for i, st := range list.Jobs {
			out[i] = st.ID
		}
		return out
	}
	status := func(id, suffix string) int {
		t.Helper()
		resp := getJSON(t, ts.URL+"/v1/jobs/"+id+suffix, nil)
		return resp.StatusCode
	}
	requireListed := func(want []string) {
		t.Helper()
		got := listed()
		if len(got) != len(want) {
			t.Fatalf("GET /v1/jobs lists %d jobs, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GET /v1/jobs entry %d is %s, want %s (submission order)", i, got[i], want[i])
			}
		}
	}

	for _, suffix := range []string{"", "/result"} {
		for _, id := range ids[:50] {
			if code := status(id, suffix); code != http.StatusNotFound {
				t.Fatalf("GET /v1/jobs/%s%s = %d for an evicted job, want 404", id, suffix, code)
			}
		}
		for _, id := range []string{ids[50], ids[finished-1]} {
			if code := status(id, suffix); code != http.StatusOK {
				t.Errorf("GET /v1/jobs/%s%s = %d for a retained job, want 200", id, suffix, code)
			}
		}
	}
	var st JobStatus
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+heldID, &st); resp.StatusCode != http.StatusOK || st.State != StateQueued {
		t.Fatalf("held job after %d later finishes: status %d, state %q, want 200 queued", finished, resp.StatusCode, st.State)
	}
	requireListed(append([]string{heldID}, ids[50:]...))

	// Bounding the registry touches neither dedup nor the memo store.
	stats := pool.Stats()
	if s.coalesced.Load() != 0 || s.flight.Coalesced() != 0 || s.accepted.Load() != finished+1 ||
		stats.Ran != distinct || stats.CacheHits != finished-distinct {
		t.Errorf("coalesced %d/%d accepted %d ran %d hits %d, want 0/0, %d, %d, %d",
			s.coalesced.Load(), s.flight.Coalesced(), s.accepted.Load(), stats.Ran, stats.CacheHits,
			finished+1, distinct, finished-distinct)
	}

	// Released, the held job finishes like any other and takes the
	// oldest finished job's place.
	release()
	waitFor(t, "the held job to retire", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs) == jobRetention
	})
	if code := status(heldID, "/result"); code != http.StatusOK {
		t.Errorf("GET result of the released job = %d, want 200", code)
	}
	if code := status(ids[50], ""); code != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/%s = %d after one more finish, want 404", ids[50], code)
	}
	requireListed(append([]string{heldID}, ids[51:]...))
}
