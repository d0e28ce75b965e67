package cliutil

import (
	"encoding/json"
	"fmt"
	"io"

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
// meta as the machine-readable workload spec. The container lands at
// path only when the capture succeeds: a failed capture leaves path as
// it was and no temp file, and a killed one never a partial container.
func CaptureRun(path string, cfg machine.Config, prog emitter.Program, source json.RawMessage) (res machine.Result, err error) {
	err = runner.WriteFileAtomic(path, func(w io.Writer) error {
		tw, err := trace.NewWriter(w, runner.TraceMeta(cfg, prog, source))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		res, err = machine.RunCapture(cfg, prog, tw)
		return err
	})
	return res, err
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
