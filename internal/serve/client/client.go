// Package client is the typed Go client for a flashd daemon: the
// request/response structs are serve's own, so a program using the
// client speaks exactly the wire contract the server tests pin.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"flashsim/internal/serve"
)

// Client talks to one flashd base URL. A blocking call (Run) holds its
// request open for as long as the job takes, so a client with a global
// timeout bounds jobs, not just I/O.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for baseURL (e.g. "http://localhost:8023"). hc
// may be nil for http.DefaultClient.
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// APIError is a non-2xx response: the decoded error body plus enough
// metadata to implement backpressure (respect RetryAfter on 429).
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("server: %s (HTTP %d, retry after %s)", e.Message, e.Status, e.RetryAfter)
	}
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// IsBusy reports whether the error is a queue-full rejection worth
// retrying after RetryAfter.
func (e *APIError) IsBusy() bool { return e.Status == http.StatusTooManyRequests }

// do issues one request and decodes the JSON response into out. The
// body is read to its end into a reused buffer, which hands the
// keep-alive connection back for the next request, and decoded in one
// json.Unmarshal.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("encode request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("read %s %s response: %w", method, path, err)
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("decode %s %s response: %w", method, path, err)
	}
	return nil
}

// bodies holds the buffers responses are read into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// apiError converts a non-2xx response, draining the body.
func apiError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	var body serve.ErrorResponse
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		e.Message = body.Error
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// Run submits a simulation run and blocks until its result (?wait=true).
func (c *Client) Run(ctx context.Context, req serve.RunRequest) (serve.RunResponse, error) {
	var out serve.RunResponse
	err := c.do(ctx, http.MethodPost, "/v1/runs?wait=true", req, &out)
	return out, err
}

// SubmitRun enqueues a run without waiting and returns its status.
func (c *Client) SubmitRun(ctx context.Context, req serve.RunRequest) (serve.JobStatus, error) {
	var out serve.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs", req, &out)
	return out, err
}

// Job returns one job's status.
func (c *Client) Job(ctx context.Context, id string) (serve.JobStatus, error) {
	var out serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Jobs lists every job the server remembers, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]serve.JobStatus, error) {
	var out struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// RunResult fetches a finished run job's payload (409 while running).
func (c *Client) RunResult(ctx context.Context, id string) (serve.RunResponse, error) {
	var out serve.RunResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &out)
	return out, err
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Health returns the server's /healthz status string ("ok" or
// "draining").
func (c *Client) Health(ctx context.Context) (string, error) {
	var out map[string]string
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return "", err
	}
	return out["status"], nil
}
