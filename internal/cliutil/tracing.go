package cliutil

import (
	"encoding/json"
	"fmt"
	"os"

	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
)

// CaptureRun executes prog under cfg execution-driven while capturing
// its instruction streams into the container file at path. The capture
// bypasses any memo store by design: a cache hit replays a stored
// Result without emitting a single instruction, which can never
// produce a trace. source, when non-nil, is recorded in the container
// meta as the machine-readable workload spec.
func CaptureRun(path string, cfg machine.Config, prog emitter.Program, source json.RawMessage) (machine.Result, error) {
	fh, err := os.Create(path)
	if err != nil {
		return machine.Result{}, err
	}
	tw, err := trace.NewWriter(fh, runner.TraceMeta(cfg, prog, source))
	if err != nil {
		fh.Close()
		os.Remove(path)
		return machine.Result{}, fmt.Errorf("%s: %w", path, err)
	}
	res, err := machine.RunCapture(cfg, prog, tw)
	if err != nil {
		fh.Close()
		os.Remove(path) // a partial container must not look like a capture
		return machine.Result{}, err
	}
	if err := fh.Close(); err != nil {
		os.Remove(path)
		return machine.Result{}, err
	}
	return res, nil
}

// LoadReplay reads the container at path and prepares it for replay.
func LoadReplay(path string) (*machine.ReplayImage, error) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return img, nil
}
