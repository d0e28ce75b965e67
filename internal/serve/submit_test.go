package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"flashsim/internal/param"
	"flashsim/internal/runner"
)

// TestEveryKind holds the one job kind, run, to what the job path
// promises every submission: its request carries timeout_ms and refuses
// unknown fields and malformed bodies with 400 before a queue slot is
// taken; a valid submission is queued as kind "run", an identical one
// joins it, DELETE cancels it for both, and a worker that then reaches
// it finishes it canceled (504) without running anything; a drained
// server refuses it with 503.
func TestEveryKind(t *testing.T) {
	s, ts, gate := newTestServer(t, Options{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failure above the release must not leave the cleanup waiting on held jobs
	const body = `{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":8}}`

	var req RunRequest
	if err := json.Unmarshal([]byte(`{"timeout_ms":7}`), &req); err != nil || req.TimeoutMS != 7 {
		t.Errorf("timeout_ms 7 decodes to %d (err %v)", req.TimeoutMS, err)
	}
	for _, bad := range []string{`{`, `{"no_such_field":1}`, body + body} {
		resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", []byte(bad))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "request body: ") {
			t.Errorf("body %s: status %d, body %s, want 400 request body: …", bad, resp.StatusCode, data)
		}
	}

	var first, twin, st JobStatus
	resp, data := postJSON(t, ts.URL+"/v1/runs", []byte(body))
	if err := json.Unmarshal(data, &first); err != nil || resp.StatusCode != http.StatusAccepted ||
		first.Kind != KindRun || first.State != StateQueued || first.Coalesced ||
		resp.Header.Get("Location") != "/v1/jobs/"+first.ID {
		t.Fatalf("submission: status %d, err %v, body %s", resp.StatusCode, err, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/runs", []byte(body))
	if err := json.Unmarshal(data, &twin); err != nil || resp.StatusCode != http.StatusAccepted ||
		twin.ID != first.ID || !twin.Coalesced {
		t.Errorf("identical submission did not join %s: status %d, err %v, body %s", first.ID, resp.StatusCode, err, data)
	}
	if got := s.accepted.Load(); got != 1 {
		t.Errorf("two good and three bad submissions took %d queue slots, want 1", got)
	}
	// The status has two observers, polling and ?wait=true; the
	// stream that was the third is the mux's 404 now.
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &st); resp.StatusCode != http.StatusOK || st != first {
		t.Errorf("polled status %+v (HTTP %d), want %+v", st, resp.StatusCode, first)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/events", nil); resp.StatusCode != http.StatusNotFound ||
		strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Errorf("GET …/events = %d %s, want the mux's own 404", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %v / %v", err, resp)
	}

	ran := s.Pool().Stats().Ran
	release()
	waitFor(t, "job "+first.ID+" canceled", func() bool {
		getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &st)
		return st.State == StateCanceled
	})
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/result", nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("result of canceled %s: status %d, want 504", first.ID, resp.StatusCode)
	}
	if got := s.Pool().Stats().Ran; got != ran {
		t.Errorf("the canceled job ran %d simulations", got-ran)
	}

	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/runs", []byte(body)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("while drained: status %d, body %s, want 503", resp.StatusCode, data)
	}
}

// TestUnrunnableSpecRefusedAtTheDoor: a spec machine.New would reject,
// whose machine is bigger than any the daemon will build, that sets a
// path the registry does not know (sampling.* among them), that names
// no model ("flash" among them) or that clocks hw or MXS at other than
// 150 is a 400 naming the config before a queue slot is taken, and a
// workload whose thread count is not the machine's processor count one
// naming the workload. (Queued, the first three came back as 500s, one
// with a goroutine dump for a body; the fourth took the process down
// with it; the workload's failed as a 500. "flash" ran hw, and the
// clock was dropped.)
func TestUnrunnableSpecRefusedAtTheDoor(t *testing.T) {
	s, ts, gate := newTestServer(t, Options{})
	close(gate)
	const mipsy, gups = `"base":"simos-mipsy",`, `,"workload":{"name":"gups","log_table":10,"updates":64}`
	procs, _ := param.Lookup("procs")
	for name, row := range map[string]struct{ spec, want string }{
		"no processors":     {mipsy + `"procs":-1` + gups, "config: "},
		"negative clock":    {mipsy + `"mhz":-5` + gups, "config: "},
		"L2 line < L1 line": {mipsy + `"set":[{"path":"l2.line_bytes","value":"16"}]` + gups, "config: machine "},
		"sampling":          {mipsy + `"set":[{"path":"sampling.enabled","value":"true"}]` + gups, `config: param: unknown path "sampling.enabled"`},
		"20000 processors":  {mipsy + `"procs":20000` + gups, "config: "},
		"one over":          {mipsy + fmt.Sprintf(`"procs":%v`, procs.Max+1) + gups, "config: "},
		"1 thread on 4":     {mipsy + `"procs":4,"workload":{"name":"snbench.restart","lines":8}`, "workload: "},
		// hw and MXS run at 150: an mhz that would be dropped is refused.
		"hw at 225":  {`"base":"hw","mhz":225` + gups, "config: mhz: hw runs at 150"},
		"MXS at 300": {`"base":"simos-mxs","mhz":300` + gups, "config: mhz: simos-mxs runs at 150"},
		// One name per model, as on the CLI.
		"flash": {`"base":"flash"` + gups, `config: unknown simulator "flash" (want hw, simos-mipsy, simos-mxs, solo-mipsy)`},
	} {
		body := `{` + row.spec + `}`
		resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", []byte(body))
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(e.Error, row.want) {
			t.Errorf("%s: status %d, body %s, want 400 %s…", name, resp.StatusCode, data, row.want)
		}
	}
	if got := s.accepted.Load(); got != 0 {
		t.Errorf("unrunnable specs took %d queue slots", got)
	}
	var health map[string]string
	if getJSON(t, ts.URL+"/healthz", &health); health["status"] != "ok" {
		t.Errorf("healthz after the refusals: %v", health)
	}

	// The largest machine inside the registry's bound is admitted.
	if _, err := (ConfigSpec{Base: "simos-mipsy", Procs: int(procs.Max)}).Config(); err != nil {
		t.Errorf("procs %v refused: %v", procs.Max, err)
	}
	if cfg, err := (ConfigSpec{Base: "simos-mipsy"}).Config(); err != nil || cfg.Procs != 1 {
		t.Errorf("procs 0: %d processors, err %v, want the one-processor default", cfg.Procs, err)
	}
}

// TestJoinedSubmissionKeepsItsOwnDeadline: a submission is not joined to
// an active identical job that will give up before it would. A (30 ms)
// waits behind a held worker; B, the same body with no timeout, must get
// a record of its own and its result — joined to A it got A's 504 — while
// C, whose deadline is no later than B's forever, joins B. One
// simulation serves all of it.
func TestJoinedSubmissionKeepsItsOwnDeadline(t *testing.T) {
	s, ts, gate := newTestServer(t, Options{Pool: runner.Serial()})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	body := func(timeout string) []byte {
		return []byte(`{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":40}` + timeout + `}`)
	}
	var a, c JobStatus
	_, data := postJSON(t, ts.URL+"/v1/runs", body(`,"timeout_ms":30`))
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		code int
		body []byte
	}
	b := make(chan answer, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/runs?wait=true", body(""))
		b <- answer{resp.StatusCode, data}
	}()
	waitFor(t, "B admitted", func() bool { return s.accepted.Load() == 2 })
	_, data = postJSON(t, ts.URL+"/v1/runs", body(`,"timeout_ms":60000`))
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	recA, _ := s.lookup(a.ID)
	<-recA.ctx.Done()
	release()

	got := <-b
	var run RunResponse
	if err := json.Unmarshal(got.body, &run); err != nil || got.code != http.StatusOK || run.Job.State != StateDone {
		t.Fatalf("B, which set no deadline: status %d, body %s", got.code, got.body)
	}
	if run.Job.ID == a.ID || run.Job.Coalesced {
		t.Errorf("B was joined to %s, whose deadline is 30 ms", a.ID)
	}
	if c.ID != run.Job.ID || !c.Coalesced {
		t.Errorf("C (60 s) is %s coalesced=%v, want joined to B's %s", c.ID, c.Coalesced, run.Job.ID)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+a.ID+"/result", nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("A, past its own deadline: status %d, want 504", resp.StatusCode)
	}
	if ran := s.Pool().Stats().Ran; ran != 1 {
		t.Errorf("the pool ran %d simulations, want 1", ran)
	}
}

// TestDocumentedRoutesExist: every /v1/<route> README.md or cmd/flashd's
// package comment names is one the server registers in routes(), so the
// documents cannot advertise a door that was taken out.
func TestDocumentedRoutesExist(t *testing.T) {
	s := New(Options{Pool: runner.Serial()})
	defer stop(s)
	route := regexp.MustCompile(`/v1/[a-z]+`)
	for _, doc := range []string{"../../README.md", "../../cmd/flashd/main.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := route.FindAllString(string(text), -1)
		if len(found) == 0 {
			t.Errorf("%s names no /v1/ route: the walk is broken", doc)
		}
		for _, path := range found {
			registered := false
			for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
				req, _ := http.NewRequest(method, path, nil)
				_, pattern := s.mux.Handler(req)
				registered = registered || pattern != ""
			}
			if !registered {
				t.Errorf("%s names %s, which the server does not register", doc, path)
			}
		}
	}
}
