package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"flashsim/internal/runner"
)

// updateWire rewrites testdata/wire.txt from what the server answers
// now. Only a change that means to move the wire contract runs it.
var updateWire = flag.Bool("wire.update", false, "rewrite testdata/wire.txt from the current server")

// wireKinds is one submission per job kind: its route, a body, and a
// second body that must land on the same dedup key. The replay bodies
// name the trace the capture before them stored (%s).
var wireKinds = []struct{ name, path, body, same string }{
	{"run", "/v1/runs",
		`{"base":"simos-mipsy","procs":2,"workload":{"name":"fft","logn":8}}`,
		`{"base":"simos-mipsy","procs":2,"shards":2,"workload":{"logn":8,"name":"fft"}}`},
	{"capture", "/v1/captures",
		`{"base":"simos-mipsy","procs":2,"workload":{"name":"lu","n":32}}`,
		`{"base":"simos-mipsy","procs":2,"workload":{"name":"lu","n":32}}`},
	{"replay", "/v1/replays",
		`{"base":"simos-mxs","trace":"%s"}`,
		`{"base":"simos-mxs","trace":"%s","shards":2}`},
}

// wireRejects are the submissions refused before admission, each with
// the status and text it is refused with today. (The inputs ISSUE 19
// re-answers on purpose — a spec Config.Validate rejects, procs beyond
// any machine, bytes after the JSON document — are not here.)
var wireRejects = []struct{ path, body string }{
	{"/v1/runs", `{`},
	{"/v1/runs", `[1,2]`},
	{"/v1/runs", `{"base":"simos-mipsy","procs":"two","workload":{"name":"fft"}}`},
	{"/v1/runs", `{"base":"simos-mipsy","workload":7}`},
	{"/v1/runs", `{"base":"simos-mipsy","typo":1,"workload":{"name":"fft"}}`},
	{"/v1/runs", `{"workload":{"name":"fft","logn":8}}`},
	{"/v1/runs", `{"base":"vax","workload":{"name":"fft","logn":8}}`},
	{"/v1/runs", `{"base":"simos-mipsy","set":[{"path":"no.such.knob","value":"1"}],"workload":{"name":"fft","logn":8}}`},
	{"/v1/runs", `{"base":"simos-mipsy","set":[{"path":"cpu.clock_mhz","value":"fast"}],"workload":{"name":"fft","logn":8}}`},
	{"/v1/runs", `{"base":"simos-mipsy","set":[{"path":"l2.transfer_ns","value":"NaN"}],"workload":{"name":"fft","logn":8}}`},
	{"/v1/runs", `{"base":"simos-mipsy"}`},
	{"/v1/runs", `{"base":"simos-mipsy","workload":{"name":"nope"}}`},
	{"/v1/runs", `{"base":"simos-mipsy","workload":{"name":"fft","logn":"eight"}}`},
	{"/v1/runs", `{"base":"simos-mipsy","workload":{"name":"snbench.dependent-loads","case":"nope","lines":8}}`},
	{"/v1/captures", `{`},
	{"/v1/captures", `[]`},
	{"/v1/captures", `{"base":"simos-mipsy","timeout_ms":"soon","workload":{"name":"fft"}}`},
	{"/v1/captures", `{"base":"simos-mipsy","trace":"abc","workload":{"name":"fft"}}`},
	{"/v1/captures", `{"base":"vax","workload":{"name":"fft","logn":8}}`},
	{"/v1/captures", `{"base":"simos-mipsy","workload":{"name":"nope"}}`},
	{"/v1/replays", `{`},
	{"/v1/replays", `[]`},
	{"/v1/replays", `{"base":"simos-mipsy","trace":7}`},
	{"/v1/replays", `{"base":"simos-mipsy","trace":"%s","workload":{"name":"fft"}}`},
	{"/v1/replays", `{"base":"simos-mipsy"}`},
	{"/v1/replays", `{"base":"simos-mipsy","trace":"deadbeef"}`},
	{"/v1/replays", `{"trace":"%s"}`},
	{"/v1/replays", `{"base":"vax","trace":"%s"}`},
}

var wireClock = regexp.MustCompile(`(_ms": )\d+`)

// wireRig is one server under the recorder. Every job execution waits at
// the gate for one token, so the test decides when a job may leave
// "queued": an exchange that pins a queued status is deterministic, and
// release() lets exactly one job through.
type wireRig struct {
	t      *testing.T
	s      *Server
	ts     *httptest.Server
	tokens chan struct{}
	out    *strings.Builder
}

func newWireRig(t *testing.T, out *strings.Builder, title string, opts Options) *wireRig {
	t.Helper()
	r := &wireRig{t: t, s: New(opts), tokens: make(chan struct{}), out: out}
	r.s.execGate = func(*jobRecord) { <-r.tokens }
	r.ts = httptest.NewServer(r.s.Handler())
	t.Cleanup(func() {
		r.ts.Close()
		r.s.baseCancel()
		// Jobs still behind the gate need a token to see they are canceled.
		done := make(chan struct{})
		go func() {
			for {
				select {
				case r.tokens <- struct{}{}:
				case <-done:
					return
				}
			}
		}()
		stop(r.s)
		close(done)
	})
	fmt.Fprintf(out, "######## %s\n\n", title)
	return r
}

// release lets one job past the gate, now or when it gets there.
func (r *wireRig) release() { go func() { r.tokens <- struct{}{} }() }

// do performs one exchange and records it: the request, the status
// line, the three headers the contract has, and the body with its
// clock readings masked.
func (r *wireRig) do(method, path, body string) {
	r.t.Helper()
	req, err := http.NewRequest(method, r.ts.URL+path, strings.NewReader(body))
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.t.Fatalf("%s %s: %v", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	fmt.Fprintf(r.out, ">>> %s %s\n", method, path)
	if body != "" {
		fmt.Fprintf(r.out, "%s\n", body)
	}
	fmt.Fprintf(r.out, "<<< %s\n", resp.Status)
	for _, h := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(r.out, "%s: %s\n", h, v)
		}
	}
	fmt.Fprintf(r.out, "%s\n", wireClock.ReplaceAll(data, []byte("${1}N")))
}

// wireID is the id a fresh server gives its n-th accepted job.
func wireID(n int) string { return fmt.Sprintf("j%06d", n) }

// terminal waits for job n to finish.
func (r *wireRig) terminal(n int) {
	r.t.Helper()
	waitFor(r.t, "job "+wireID(n)+" to finish", func() bool {
		rec, ok := r.s.lookup(wireID(n))
		return ok && rec.Status().State.Terminal()
	})
}

// TestWirePinned pins the daemon's wire contract kind by kind: for
// each of the three job kinds the status line, Content-Type / Location /
// Retry-After and body bytes of a queued 202, its coalesced twin, 409
// before terminal, the finished /result, ?wait=true, DELETE then 504, a
// lapsed timeout_ms, 429 and 503 — plus every validation refusal, a
// failed job, unknown ids and the list. testdata/wire.txt was recorded
// before the five submit handlers and the five execute arms were folded
// into one path; a refactor must leave it byte for byte, a deliberate
// contract change rewrites it with -wire.update. It pins neither
// /metrics (TestServerMetricsParsesAndAgreesWithCollector does) nor
// /v1/params (param.Describe's own text).
func TestWirePinned(t *testing.T) {
	var out strings.Builder
	traces, err := runner.NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newPool := func(workers int) *runner.Pool {
		store, err := runner.NewStore("")
		if err != nil {
			t.Fatal(err)
		}
		return runner.New(workers, store)
	}

	// ---- The life of a job, per kind.
	r := newWireRig(t, &out, "one job of each kind: queued, joined, 409, result, ?wait=true", Options{Pool: newPool(2), Traces: traces})
	trace := ""
	withTrace := func(body string) string { return strings.ReplaceAll(body, "%s", trace) }
	jobs := 0
	for _, k := range wireKinds {
		body, same := withTrace(k.body), withTrace(k.same)
		jobs++
		n := jobs
		r.do("POST", k.path, body)
		r.do("POST", k.path, same)
		r.do("GET", "/v1/jobs/"+wireID(n), "")
		r.do("GET", "/v1/jobs/"+wireID(n)+"/result", "")
		r.release()
		r.terminal(n)
		r.do("GET", "/v1/jobs/"+wireID(n), "")
		r.do("GET", "/v1/jobs/"+wireID(n)+"/result", "")
		jobs++
		r.release()
		r.do("POST", k.path+"?wait=true", body)
		if k.name == "capture" {
			rec, _ := r.s.lookup(wireID(n))
			trace = rec.Payload().(CaptureResponse).Trace
		}
	}

	// ---- Refused before admission: none of these takes a queue slot.
	fmt.Fprintf(&out, "######## refused at the door\n\n")
	accepted := r.s.accepted.Load()
	for _, c := range wireRejects {
		r.do("POST", c.path+"?wait=true", withTrace(c.body))
	}
	if got := r.s.accepted.Load(); got != accepted {
		t.Errorf("refused submissions took %d queue slots", got-accepted)
	}
	for _, suffix := range []string{"", "/result"} {
		r.do("GET", "/v1/jobs/j999999"+suffix, "")
	}
	r.do("DELETE", "/v1/jobs/j999999", "")

	// ---- A job that fails: the trace has two threads, the machine four.
	fmt.Fprintf(&out, "######## a failed job\n\n")
	jobs++
	r.release()
	r.do("POST", "/v1/replays?wait=true", withTrace(`{"base":"simos-mipsy","procs":4,"trace":"%s"}`))
	r.do("GET", "/v1/jobs/"+wireID(jobs), "")
	r.do("GET", "/v1/jobs/"+wireID(jobs)+"/result", "")

	// ---- DELETE, per kind: canceled while queued, 504 once a worker
	// has seen it.
	fmt.Fprintf(&out, "######## DELETE then 504, per kind\n\n")
	first := jobs + 1
	for _, k := range wireKinds {
		jobs++
		r.do("POST", k.path, withTrace(k.body))
		r.do("DELETE", "/v1/jobs/"+wireID(jobs), "")
	}
	// One more, whose own deadline lapses in the queue.
	jobs++
	r.do("POST", "/v1/runs", `{"base":"simos-mipsy","seed":8,"workload":{"name":"fft","logn":8},"timeout_ms":1}`)
	rec, _ := r.s.lookup(wireID(jobs))
	<-rec.ctx.Done()
	for n := first; n <= jobs; n++ {
		r.release()
	}
	for n := first; n <= jobs; n++ {
		r.terminal(n)
		r.do("GET", "/v1/jobs/"+wireID(n), "")
		r.do("GET", "/v1/jobs/"+wireID(n)+"/result", "")
	}
	r.do("GET", "/v1/jobs", "")
	r.do("GET", "/healthz", "")

	// ---- Backpressure and drain, per kind: one worker, one queue slot.
	r = newWireRig(t, &out, "429 and 503, per kind", Options{
		Pool: newPool(1), Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second, Traces: traces,
	})
	r.do("POST", "/v1/runs", `{"base":"simos-mipsy","seed":1,"workload":{"name":"fft","logn":8}}`)
	waitFor(t, "the worker to take the first job", func() bool { return len(r.s.queue) == 0 })
	r.do("POST", "/v1/runs", `{"base":"simos-mipsy","seed":2,"workload":{"name":"fft","logn":8}}`)
	submitEach := func() {
		for _, k := range wireKinds {
			r.do("POST", k.path+"?wait=true", withTrace(k.body))
		}
	}
	submitEach()
	drained := make(chan error, 1)
	go func() { drained <- r.s.Drain(context.Background()) }()
	waitFor(t, "the server to drain", r.s.Draining)
	submitEach()
	r.do("GET", "/healthz", "")
	r.release()
	r.release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	r.do("GET", "/v1/jobs/"+wireID(2)+"/result", "")

	// ---- No trace store.
	r = newWireRig(t, &out, "no -trace-dir", Options{Pool: newPool(1)})
	r.do("POST", "/v1/captures?wait=true", `{"base":"simos-mipsy","workload":{"name":"fft","logn":8}}`)
	r.do("POST", "/v1/replays?wait=true", `{"base":"simos-mipsy","trace":"deadbeef"}`)

	const golden = "testdata/wire.txt"
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, pinned := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(pinned)) {
		if got[i] != pinned[i] {
			t.Fatalf("the wire parts from %s at line %d, after\n%s\ngot:    %s\npinned: %s",
				golden, i+1, strings.Join(got[max(i-12, 0):i], "\n"), got[i], pinned[i])
		}
	}
	if len(got) != len(pinned) {
		t.Fatalf("the wire transcript has %d lines, %s %d", len(got), golden, len(pinned))
	}
}
