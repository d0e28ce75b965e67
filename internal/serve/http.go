package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"flashsim/internal/param"
)

// maxBodyBytes bounds request bodies; a run submission is a small JSON
// document, so anything bigger is a client bug, not a workload.
const maxBodyBytes = 1 << 20

// routes installs the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/params", s.handleParams)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// writeJSON writes v with the given status: compact JSON, encoded once
// into a reused buffer and sent with its length in one Write. A large
// value is best passed by pointer; boxed in the interface, it is copied.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := encoders.Get().(*encoder)
	e.buf.Reset()
	_ = e.enc.Encode(v) // plain data: nothing a response carries fails to encode
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
	encoders.Put(e)
}

// encoder is one response buffer with the json.Encoder that fills it.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode parses a bounded JSON body, rejecting unknown fields so a
// typo'd parameter fails loudly instead of silently running defaults —
// and anything after the document, which is a second submission or a
// truncated edit and never what the client meant to run.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("request body: data after the JSON document")
	}
	return nil
}

// rejectAdmission renders the two admission failures: 503 while
// draining, 429 with an explicit Retry-After under backpressure.
func (s *Server) rejectAdmission(w http.ResponseWriter, status int) {
	if status == http.StatusServiceUnavailable {
		writeJSON(w, status, ErrorResponse{Error: "server is draining; not accepting jobs"})
		return
	}
	secs := max(int(s.retryAfter.Seconds()), 1)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, ErrorResponse{
		Error:       fmt.Sprintf("job queue full (%d queued); retry later", s.queueDepth),
		RetryAfterS: secs,
	})
}

// respondSubmitted answers a successful submission: synchronously
// (?wait=true blocks until the job finishes and returns its payload)
// or asynchronously (202 + status + Location).
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, rec *jobRecord, coalesced bool) {
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-rec.done:
			s.respondPayload(w, rec, coalesced)
		case <-r.Context().Done():
			// Client hung up; the job itself keeps running (accepted
			// work is completed and memoized for the next asker).
		}
		return
	}
	st := rec.Status()
	st.Coalesced = coalesced
	w.Header().Set("Location", "/v1/jobs/"+rec.id)
	writeJSON(w, http.StatusAccepted, st)
}

// respondPayload renders a terminal job: 200 with the payload on
// success, 500/504 with the error otherwise.
func (s *Server) respondPayload(w http.ResponseWriter, rec *jobRecord, coalesced bool) {
	st := rec.Status()
	st.Coalesced = coalesced
	switch st.State {
	case StateDone:
		payload := rec.Payload(st)
		writeJSON(w, http.StatusOK, &payload)
	case StateCanceled:
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "job " + rec.id + " canceled: " + st.Error})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "job " + rec.id + " failed: " + st.Error})
	}
}

// handleSubmit is the one submission path: decode the run request,
// resolve it to a keyed run (a spec that could never run is a 400
// before a queue slot is taken), admit it (or join its active twin),
// answer.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, err := req.job()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec, coalesced, refused := s.admit(run, req.TimeoutMS)
	if refused != 0 {
		s.rejectAdmission(w, refused)
		return
	}
	s.respondSubmitted(w, r, rec, coalesced)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.jobs))
	for _, rec := range s.jobs {
		statuses = append(statuses, rec.Status())
	}
	s.mu.Unlock()
	// Submission order: ids count up, so shorter is older, then by digits.
	sort.Slice(statuses, func(i, j int) bool {
		a, b := statuses[i].ID, statuses[j].ID
		return len(a) < len(b) || len(a) == len(b) && a < b
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec.Status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if st := rec.Status(); !st.State.Terminal() {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	s.respondPayload(w, rec, false)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	rec.cancel()
	writeJSON(w, http.StatusOK, rec.Status())
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, param.Describe())
}

// handleMetrics assembles the Prometheus exposition: the shared
// obs.Report (identical to what -metrics-out writes as JSON) plus the
// daemon's own admission-control gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.collector.Snapshot()
	rep.Runner = s.pool.Stats().Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := rep.WritePrometheus(w); err != nil {
		return
	}
	s.mu.Lock()
	queueDepth := len(s.queue)
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("flashd_jobs_accepted_total", "Jobs admitted into the queue.", s.accepted.Load())
	counter("flashd_jobs_rejected_total", "Submissions rejected with 429 (queue full).", s.rejected.Load())
	counter("flashd_jobs_refused_total", "Submissions refused with 503 (draining).", s.refused.Load())
	counter("flashd_jobs_coalesced_total", "Submissions coalesced onto an active identical job.", s.coalesced.Load())
	gauge("flashd_queue_depth", "Jobs accepted but not yet started.", int64(queueDepth))
	gauge("flashd_queue_capacity", "Bounded queue capacity.", int64(s.queueDepth))
	gauge("flashd_workers", "Concurrent job executors.", int64(s.pool.Workers()))
	gauge("flashd_draining", "1 while the server refuses new jobs.", int64(draining))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}
