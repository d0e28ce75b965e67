package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flashsim/internal/emitter"
	"flashsim/internal/runner"
)

// newTestServer builds a gated server over a fresh pool and an
// httptest front end. The returned gate holds every worker at the top
// of execute; tests close it to release execution. Callers must close
// the gate before the test ends (cleanup drains the server).
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	if opts.Pool == nil {
		opts.Pool = runner.New(2, nil)
	}
	s := New(opts)
	gate := make(chan struct{})
	s.execGate = func(*jobRecord) { <-gate }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		stop(s)
	})
	return s, ts, gate
}

// stop is a test's teardown: admissions stop, queued and in-flight
// jobs are cancelled, and the workers are waited for. A Drain whose
// context has already expired does exactly that.
func stop(s *Server) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// runBody renders a snbench.restart run submission; lines
// differentiates fingerprints between jobs.
func runBody(lines int) []byte {
	return []byte(fmt.Sprintf(
		`{"base":"simos-mipsy","procs":1,"workload":{"name":"snbench.restart","lines":%d}}`, lines))
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerRunRoundTrip: a synchronous run submission returns the
// simulation result, and resubmitting the identical request after
// completion is served from the memo store (cached=true) without a
// second execution.
func TestServerRunRoundTrip(t *testing.T) {
	store, err := runner.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(2, store)
	_, ts, gate := newTestServer(t, Options{Pool: pool})
	close(gate)

	resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", runBody(32))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold submit: status %d, body %s", resp.StatusCode, data)
	}
	var cold RunResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatalf("decode cold response: %v", err)
	}
	if cold.Job.State != StateDone {
		t.Fatalf("cold job state = %s, want done", cold.Job.State)
	}
	if cold.Job.Cached {
		t.Error("cold run reported cached")
	}
	if cold.Result.Instructions == 0 || cold.Result.Total == 0 {
		t.Errorf("empty result: %+v", cold.Result)
	}

	resp, data = postJSON(t, ts.URL+"/v1/runs?wait=true", runBody(32))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm submit: status %d, body %s", resp.StatusCode, data)
	}
	var warm RunResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatalf("decode warm response: %v", err)
	}
	if !warm.Job.Cached {
		t.Error("warm run not served from cache")
	}
	if warm.Result.Total != cold.Result.Total || warm.Result.Instructions != cold.Result.Instructions {
		t.Errorf("cached result differs: cold %v/%d warm %v/%d",
			cold.Result.Total, cold.Result.Instructions, warm.Result.Total, warm.Result.Instructions)
	}
	if got := pool.Stats().Ran; got != 1 {
		t.Errorf("pool executed %d runs, want 1", got)
	}
}

// TestServerCoalescesConcurrentIdenticalRuns pins the dedup guarantee:
// N identical concurrent submissions produce exactly one pool
// execution, every caller gets the result, and all but one response is
// marked coalesced.
func TestServerCoalescesConcurrentIdenticalRuns(t *testing.T) {
	const callers = 6
	s, ts, gate := newTestServer(t, Options{})

	var wg sync.WaitGroup
	responses := make([]RunResponse, callers)
	codes := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", runBody(64))
			codes[i] = resp.StatusCode
			_ = json.Unmarshal(data, &responses[i])
		}(i)
	}
	// Release the workers only after every submission has been
	// admitted (one real record + callers-1 coalesced joins), so the
	// test exercises the concurrent window deterministically.
	waitFor(t, "all submissions admitted", func() bool {
		return s.coalesced.Load() == callers-1
	})
	close(gate)
	wg.Wait()

	joined := 0
	for i := 0; i < callers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, codes[i])
		}
		if responses[i].Job.State != StateDone {
			t.Errorf("caller %d: state %s", i, responses[i].Job.State)
		}
		if responses[i].Result.Total == 0 {
			t.Errorf("caller %d: empty result", i)
		}
		if responses[i].Job.Coalesced {
			joined++
		}
	}
	if joined != callers-1 {
		t.Errorf("%d responses marked coalesced, want %d", joined, callers-1)
	}
	if got := s.Pool().Stats().Ran; got != 1 {
		t.Errorf("pool executed %d runs for %d identical submissions, want exactly 1", got, callers)
	}
}

// TestServerQueueFullRejectsWith429 pins admission control: once the
// single worker is busy and the depth-1 queue holds a job, the next
// distinct submission is rejected with 429 and a Retry-After hint —
// and the already-accepted jobs still complete.
func TestServerQueueFullRejectsWith429(t *testing.T) {
	s, ts, gate := newTestServer(t, Options{
		Pool:       runner.Serial(),
		QueueDepth: 1,
		RetryAfter: 2 * time.Second,
	})

	respA, dataA := postJSON(t, ts.URL+"/v1/runs", runBody(8))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: status %d, body %s", respA.StatusCode, dataA)
	}
	// The worker holds A at the gate; wait for it to leave the queue so
	// B lands in the only slot.
	waitFor(t, "worker to take job A", func() bool { return len(s.queue) == 0 })

	respB, dataB := postJSON(t, ts.URL+"/v1/runs", runBody(16))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status %d, body %s", respB.StatusCode, dataB)
	}

	respC, dataC := postJSON(t, ts.URL+"/v1/runs", runBody(24))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: status %d, want 429; body %s", respC.StatusCode, dataC)
	}
	if got := respC.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	var e ErrorResponse
	if err := json.Unmarshal(dataC, &e); err != nil || e.RetryAfterS != 2 {
		t.Errorf("429 body = %s (err %v), want retry_after_s 2", dataC, err)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// The rejection must not have cost A or B anything, and the two
	// bodies are two jobs: two ids, two simulations.
	close(gate)
	var stA, stB JobStatus
	_ = json.Unmarshal(dataA, &stA)
	_ = json.Unmarshal(dataB, &stB)
	for _, id := range []string{stA.ID, stB.ID} {
		id := id
		waitFor(t, "job "+id+" done", func() bool {
			var st JobStatus
			getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
			return st.State == StateDone
		})
	}
	if ran := s.Pool().Stats().Ran; stA.ID == stB.ID || ran != 2 {
		t.Errorf("A is %s and B %s, and the pool ran %d simulations, want two ids and 2", stA.ID, stB.ID, ran)
	}
}

// TestServerDrainRefusesNewAndCompletesAccepted pins graceful
// shutdown: during a drain, new submissions get 503 while every job
// accepted before the drain still runs to done and stays fetchable.
func TestServerDrainRefusesNewAndCompletesAccepted(t *testing.T) {
	s, ts, gate := newTestServer(t, Options{Pool: runner.Serial(), QueueDepth: 8})

	var ids []string
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/runs", runBody(8*(i+1)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %s", i, resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	waitFor(t, "server draining", s.Draining)

	resp, data := postJSON(t, ts.URL+"/v1/runs", runBody(999))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d, want 503; body %s", resp.StatusCode, data)
	}
	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "draining" {
		t.Errorf("healthz status = %q, want draining", health["status"])
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		var got RunResponse
		resp := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &got)
		if resp.StatusCode != http.StatusOK || got.Job.State != StateDone {
			t.Errorf("job %s after drain: status %d state %s, want 200 done", id, resp.StatusCode, got.Job.State)
		}
	}
}

// TestServerCancelAndTimeout: DELETE cancels a queued job, and a
// submission deadline expires a job that never left the queue; both
// surface as state=canceled with a 504 result.
func TestServerCancelAndTimeout(t *testing.T) {
	s, ts, gate := newTestServer(t, Options{Pool: runner.Serial(), QueueDepth: 4})

	// A occupies the worker at the gate.
	postJSON(t, ts.URL+"/v1/runs", runBody(8))
	waitFor(t, "worker busy", func() bool { return len(s.queue) == 0 })

	_, dataB := postJSON(t, ts.URL+"/v1/runs", runBody(16))
	var stB JobStatus
	if err := json.Unmarshal(dataB, &stB); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+stB.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %v / %v", err, resp)
	}

	_, dataC := postJSON(t, ts.URL+"/v1/runs",
		[]byte(`{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":24},"timeout_ms":5}`))
	var stC JobStatus
	if err := json.Unmarshal(dataC, &stC); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let C's deadline lapse while queued
	close(gate)

	for _, id := range []string{stB.ID, stC.ID} {
		id := id
		waitFor(t, "job "+id+" canceled", func() bool {
			var st JobStatus
			getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
			return st.State == StateCanceled
		})
		if resp := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", nil); resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("result of canceled %s: status %d, want 504", id, resp.StatusCode)
		}
	}
}

// TestDeadlineLapsingMidRun: a job whose timeout_ms lapses while its
// simulation runs answers 504 at once, and its worker moves on, while
// the simulation, which cannot be preempted, holds its pool slot until
// it finishes and fills the store. The job's one thread is held on a
// channel, so "mid-run" needs no sleep: a second job runs on the other
// worker meanwhile, and after the release an identical resubmission is
// a memo hit.
func TestDeadlineLapsingMidRun(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, gate := newTestServer(t, Options{Pool: runner.New(2, store)})
	close(gate)
	started, hold := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	cfg, err := ConfigSpec{Base: "simos-mipsy"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	held := runner.Job{Config: cfg, Prog: emitter.Program{
		Name: "serve-test-held", Variant: "ops=1", Threads: 1,
		Body: func(th *emitter.Thread, _ any) {
			close(started)
			<-hold
			th.IntOps(1)
		},
	}}.Keyed()

	rec, _, refused := s.admit(held, 20)
	if refused != 0 {
		t.Fatalf("admission refused with %d", refused)
	}
	<-started
	<-rec.ctx.Done()
	waitFor(t, "the lapsed job to finish", func() bool { return rec.Status().State.Terminal() })
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+rec.id+"/result", nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("result past the deadline: status %d, want 504", resp.StatusCode)
	}
	if st := s.Pool().Stats(); st.Ran != 0 {
		t.Fatalf("the held run finished (%d ran) before its release", st.Ran)
	}
	resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", runBody(8))
	var other RunResponse
	if err := json.Unmarshal(data, &other); err != nil || resp.StatusCode != http.StatusOK || other.Job.ID == rec.id {
		t.Fatalf("a second job while the first is held: status %d, body %s", resp.StatusCode, data)
	}

	release()
	waitFor(t, "the held run to fill the store", func() bool {
		_, ok := store.Get(held.Fingerprint())
		return ok
	})
	again, _, refused := s.admit(held, 0)
	if refused != 0 {
		t.Fatalf("resubmission refused with %d", refused)
	}
	<-again.done
	if st := again.Status(); st.State != StateDone || !st.Cached || st.ID == rec.id {
		t.Errorf("identical resubmission: %+v, want a new job, done and cached", st)
	}
	if ran := s.Pool().Stats().Ran; ran != 2 {
		t.Errorf("the pool ran %d simulations, want 2 (the held run and the second job)", ran)
	}
}

// TestServerRejectsBadSubmissions: malformed specs fail with 400 before
// touching the queue, and unknown jobs 404.
func TestServerRejectsBadSubmissions(t *testing.T) {
	s, ts, gate := newTestServer(t, Options{})
	close(gate)

	for name, body := range map[string]string{
		"unknown workload": `{"base":"simos-mipsy","workload":{"name":"nope"}}`,
		"unknown base":     `{"base":"vax","workload":{"name":"snbench.restart","lines":8}}`,
		"unknown field":    `{"base":"simos-mipsy","typo":1,"workload":{"name":"snbench.restart","lines":8}}`,
		"unknown setting":  `{"base":"simos-mipsy","set":[{"path":"no.such.knob","value":"1"}],"workload":{"name":"snbench.restart","lines":8}}`,
		"bad case":         `{"base":"simos-mipsy","workload":{"name":"snbench.dependent-loads","case":"nope"}}`,
		"second document":  `{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":8}}{"base":"hw"}`,
		"trailing garbage": `{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":8}} trailing garbage`,
	} {
		resp, data := postJSON(t, ts.URL+"/v1/runs", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", name, resp.StatusCode, data)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/j999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if got := s.accepted.Load(); got != 0 {
		t.Errorf("bad submissions consumed %d queue slots", got)
	}
}

// TestNaNSettingIsRefusedNotPanicked: NaN passes every comparison
// against a bound, and unrefused it reached param.AppendCanonical, which
// panics — the handler died and the client read an empty reply. It is
// a 400 with a JSON body naming the path, the next request is served,
// and the server's log holds no panic.
func TestNaNSettingIsRefusedNotPanicked(t *testing.T) {
	s := New(Options{Pool: runner.New(2, nil)})
	defer stop(s)
	var serverLog bytes.Buffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&serverLog, "", 0)
	ts.Start()

	resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true",
		[]byte(`{"base":"simos-mipsy","set":[{"path":"l2.transfer_ns","value":"NaN"}],"workload":{"name":"snbench.restart","lines":8}}`))
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "l2.transfer_ns") {
		t.Errorf("NaN: status %d, body %s, want 400 naming l2.transfer_ns", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", runBody(8)); resp.StatusCode != http.StatusOK {
		t.Errorf("the request after the refusals: status %d, body %s", resp.StatusCode, data)
	}
	ts.Close()
	if strings.Contains(serverLog.String(), "panic") {
		t.Errorf("the server logged a panic:\n%s", serverLog.String())
	}
}
