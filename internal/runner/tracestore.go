package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/trace"
)

// traceExt is the trace container file extension.
const traceExt = ".fltr"

// TraceStore is a content-addressed directory of trace containers,
// keyed by TraceFingerprint: the store-once/replay-many side of
// trace-driven simulation. Unlike Store it holds no decoded state in
// memory — containers are large and a Trace is cheap to re-decode
// relative to capture — it only brokers files. Safe for concurrent
// use; Save is atomic (temp file + rename), so readers never observe a
// half-written container and a crashed capture leaves no poisoned key.
type TraceStore struct {
	dir string
	mu  sync.Mutex // serializes Save per process; rename gives atomicity
}

// NewTraceStore returns a trace store rooted at dir, creating it if
// missing.
func NewTraceStore(dir string) (*TraceStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: trace store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &TraceStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *TraceStore) Dir() string { return s.dir }

// Path returns the file path a fingerprint maps to.
func (s *TraceStore) Path(fp string) string {
	return filepath.Join(s.dir, fp+traceExt)
}

// Has reports whether the store holds a container for fp.
func (s *TraceStore) Has(fp string) bool {
	if !validFP(fp) {
		return false
	}
	_, err := os.Stat(s.Path(fp))
	return err == nil
}

// Save captures a container under fp by streaming write's output into
// a temporary file and renaming it into place. If fp already exists it
// is left untouched and Save returns (false, nil) without invoking
// write — store once, replay many.
func (s *TraceStore) Save(fp string, write func(w io.Writer) error) (bool, error) {
	if !validFP(fp) {
		return false, fmt.Errorf("runner: invalid trace fingerprint %q", fp)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dst := s.Path(fp)
	if _, err := os.Stat(dst); err == nil {
		return false, nil
	}
	tmp, err := os.CreateTemp(s.dir, "capture-*.tmp")
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return false, err
	}
	return true, nil
}

// Capture runs prog under cfg execution-driven with its instruction
// streams recorded into the container at TraceFingerprint(cfg, prog),
// source in its metadata. A container already there is left alone:
// nothing runs, res is zero and stored is false.
func (s *TraceStore) Capture(cfg machine.Config, prog emitter.Program, source json.RawMessage) (res machine.Result, fp string, stored bool, err error) {
	fp = TraceFingerprint(cfg, prog)
	if s.Has(fp) {
		return res, fp, false, nil
	}
	stored, err = s.Save(fp, func(w io.Writer) error {
		tw, err := trace.NewWriter(w, TraceMeta(cfg, prog, source))
		if err != nil {
			return err
		}
		res, err = machine.RunCapture(cfg, prog, tw)
		return err
	})
	return res, fp, stored, err
}

// Load decodes the container stored under fp.
func (s *TraceStore) Load(fp string) (*trace.Trace, error) {
	if !validFP(fp) {
		return nil, fmt.Errorf("runner: invalid trace fingerprint %q", fp)
	}
	tr, err := trace.ReadFile(s.Path(fp))
	if err != nil {
		return nil, fmt.Errorf("runner: trace %s: %w", fp, err)
	}
	return tr, nil
}

// validFP keeps fingerprints path-safe: lowercase hex, as produced by
// the fingerprint functions.
func validFP(fp string) bool {
	if fp == "" || len(fp) > 128 {
		return false
	}
	return strings.IndexFunc(fp, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}
