package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"flashsim/internal/param"
	"flashsim/internal/runner"
)

// maxBodyBytes bounds request bodies; a run submission is a small JSON
// document, so anything bigger is a client bug, not a workload.
const maxBodyBytes = 1 << 20

// routes installs the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /v1/calibrations", s.handleSubmitCalibration)
	s.mux.HandleFunc("POST /v1/figures", s.handleSubmitFigure)
	s.mux.HandleFunc("POST /v1/captures", s.handleSubmitCapture)
	s.mux.HandleFunc("POST /v1/replays", s.handleSubmitReplay)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/params", s.handleParams)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode parses a bounded JSON body, rejecting unknown fields so a
// typo'd parameter fails loudly instead of silently running defaults.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

// rejectAdmission renders the two admission failures: 503 while
// draining, 429 with an explicit Retry-After under backpressure.
func (s *Server) rejectAdmission(w http.ResponseWriter, why admitError) {
	switch why {
	case admitDraining:
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining; not accepting jobs"})
	case admitFull:
		secs := int(s.retryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:       fmt.Sprintf("job queue full (%d queued); retry later", s.queueDepth),
			RetryAfterS: secs,
		})
	}
}

// respondSubmitted answers a successful submission: synchronously
// (?wait=true blocks until the job finishes and returns its payload)
// or asynchronously (202 + status + Location).
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, rec *jobRecord, coalesced bool) {
	if isTrue(r.URL.Query().Get("wait")) {
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
		switch p := rec.Payload().(type) {
		case RunResponse:
			p.Job = st
			writeJSON(w, http.StatusOK, p)
		case CalibrationResponse:
			p.Job = st
			writeJSON(w, http.StatusOK, p)
		case FigureResponse:
			p.Job = st
			writeJSON(w, http.StatusOK, p)
		case CaptureResponse:
			p.Job = st
			writeJSON(w, http.StatusOK, p)
		case ReplayResponse:
			p.Job = st
			writeJSON(w, http.StatusOK, p)
		default:
			writeError(w, http.StatusInternalServerError, "job %s finished without a payload", rec.id)
		}
	case StateCanceled:
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "job " + rec.id + " canceled: " + st.Error})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "job " + rec.id + " failed: " + st.Error})
	}
}

func isTrue(v string) bool {
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	prog, err := req.Workload.Program(cfg.Procs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "workload: %v", err)
		return
	}
	// Keyed once, here: admission, flight and pool all read this key.
	job := runner.Job{Config: cfg, Prog: prog}.Keyed()
	rec, coalesced, why := s.admit(KindRun, job.Fingerprint(), req.TimeoutMS, func(rec *jobRecord) {
		rec.job = job
	})
	if why != admitOK {
		s.rejectAdmission(w, why)
		return
	}
	s.respondSubmitted(w, r, rec, coalesced)
}

func (s *Server) handleSubmitCalibration(w http.ResponseWriter, r *http.Request) {
	var req CalibrationRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Calibration probes run at 4 processors like `flashsim tune`; the spec's
	// procs field is accepted but irrelevant, so it is pinned to keep
	// the dedup key canonical.
	req.Procs = 4
	cfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	rec, coalesced, why := s.admit(KindCalibration, configFingerprint(KindCalibration, cfg), req.TimeoutMS, func(rec *jobRecord) {
		rec.calCfg = cfg
	})
	if why != admitOK {
		s.rejectAdmission(w, why)
		return
	}
	s.respondSubmitted(w, r, rec, coalesced)
}

func (s *Server) handleSubmitFigure(w http.ResponseWriter, r *http.Request) {
	var req FigureRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Figure < 1 || req.Figure > 7 {
		writeError(w, http.StatusBadRequest, "figure %d out of range 1-7", req.Figure)
		return
	}
	fp := fmt.Sprintf("figure:%d:quick=%v", req.Figure, req.Quick)
	rec, coalesced, why := s.admit(KindFigure, fp, req.TimeoutMS, func(rec *jobRecord) {
		rec.figure = req
	})
	if why != admitOK {
		s.rejectAdmission(w, why)
		return
	}
	s.respondSubmitted(w, r, rec, coalesced)
}

func (s *Server) handleSubmitCapture(w http.ResponseWriter, r *http.Request) {
	var req CaptureRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.traces == nil {
		writeError(w, http.StatusBadRequest, "no trace store configured (start flashd with -trace-dir)")
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	prog, err := req.Workload.Program(cfg.Procs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "workload: %v", err)
		return
	}
	fp := runner.TraceFingerprint(cfg, prog)
	rec, coalesced, why := s.admit(KindCapture, "capture:"+fp, req.TimeoutMS, func(rec *jobRecord) {
		rec.job = runner.Job{Config: cfg, Prog: prog}
		rec.source = req.Workload
		rec.trace = fp
	})
	if why != admitOK {
		s.rejectAdmission(w, why)
		return
	}
	s.respondSubmitted(w, r, rec, coalesced)
}

func (s *Server) handleSubmitReplay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.traces == nil {
		writeError(w, http.StatusBadRequest, "no trace store configured (start flashd with -trace-dir)")
		return
	}
	if req.Trace == "" {
		writeError(w, http.StatusBadRequest, "trace fingerprint missing")
		return
	}
	if !s.traces.Has(req.Trace) {
		writeError(w, http.StatusNotFound, "no trace %q in the store (capture it first)", req.Trace)
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	// The dedup key covers the requested spec verbatim (procs 0 means
	// "the trace's thread count"; the executor resolves it); the memo
	// store underneath keys on the resolved runner.ReplayFingerprint.
	fp := configFingerprint(KindReplay, cfg) + ":" + req.Trace
	rec, coalesced, why := s.admit(KindReplay, fp, req.TimeoutMS, func(rec *jobRecord) {
		rec.replay = req
	})
	if why != admitOK {
		s.rejectAdmission(w, why)
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
	if !rec.Status().State.Terminal() {
		writeJSON(w, http.StatusConflict, rec.Status())
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

// handleJobEvents streams status transitions as Server-Sent Events:
// one `event: status` per transition with a JobStatus JSON data line,
// then `event: done` when the job is terminal.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, snap := rec.subscribe()
	defer rec.unsubscribe(ch)
	send := func(event string, st JobStatus) {
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}
	send("status", snap)
	if snap.State.Terminal() {
		send("done", snap)
		return
	}
	for {
		select {
		case st := <-ch:
			send("status", st)
			if st.State.Terminal() {
				send("done", st)
				return
			}
		case <-rec.done:
			// The terminal transition may have raced the subscription;
			// re-read and close out.
			st := rec.Status()
			send("status", st)
			send("done", st)
			return
		case <-r.Context().Done():
			return
		}
	}
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
	counter("flashd_flight_coalesced_total", "Pool executions joined in-flight (runner.Flight).", s.flight.Coalesced())
	gauge("flashd_queue_depth", "Jobs accepted but not yet started.", int64(queueDepth))
	gauge("flashd_queue_capacity", "Bounded queue capacity.", int64(s.queueDepth))
	gauge("flashd_workers", "Concurrent job executors.", int64(s.workers))
	gauge("flashd_draining", "1 while the server refuses new jobs.", int64(draining))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}
