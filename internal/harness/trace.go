package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/trace"
)

// TraceReplayRow is one (workload, detail rung) cell of the
// trace-driven error experiment: how far a core-model-free replay of
// the captured streams lands from the execution-driven run at that
// rung of the CPU-detail ladder.
type TraceReplayRow struct {
	Workload string
	Rung     string
	// Class is the taxonomy class of the rung's trace-driven error:
	// "exact" at the capture rung (classic Mipsy, where replay timing
	// rules coincide with the core's), param.Omission at the detailed
	// rungs (the replay deliberately omits the core detail).
	Class string
	// Relative is replay ExecTicks / execution-driven ExecTicks.
	Relative float64
	// Identical reports bit-identical ExecTicks (expected true exactly
	// at the capture rung).
	Identical bool
}

// TraceReplayData is the trace experiment's structured result.
type TraceReplayData struct {
	Rows []TraceReplayRow
}

// ExperimentTraceReplay runs every fixed SPLASH-2 workload both
// execution-driven across the CPU-detail ladder (classic SimOS-Mipsy,
// Mipsy with functional-unit latencies, SimOS-MXS) and trace-driven
// from a capture of the classic-Mipsy run, then reports the
// trace-driven error at each rung as taxonomy rows.
//
// The capture rung must agree bit for bit — trace-driven simulation
// adds no error when the replay's timing rules match the core that
// produced the trace. At the detailed rungs the divergence is the cost
// of discarding the core model: an omission-class error, the
// trace-driven analogue of Solo's missing OS or Mipsy's unit
// latencies.
func (s *Session) ExperimentTraceReplay(procs int) (TraceReplayData, string, error) {
	var d TraceReplayData
	base, err := s.override(core.SimOSMipsy(procs, 150, true))
	if err != nil {
		return d, "", err
	}
	lat := base
	lat.ModelInstrLatency = true
	lat.Name += " +lat"
	mxs, err := s.override(core.SimOSMXS(procs, true))
	if err != nil {
		return d, "", err
	}

	for _, w := range s.Scale.FixedApps() {
		prog := w.Make(procs)

		// The capture IS the ladder's first rung: one execution-driven
		// run that also records the streams.
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf, runner.TraceMeta(base, prog, nil))
		if err != nil {
			return d, "", err
		}
		capRes, err := machine.RunCapture(base, prog, tw)
		if err != nil {
			return d, "", fmt.Errorf("capturing %s: %w", w.Name, err)
		}
		tr, err := trace.Decode(buf.Bytes())
		if err != nil {
			return d, "", fmt.Errorf("decoding %s capture: %w", w.Name, err)
		}
		img, err := machine.PrepareReplay(tr)
		if err != nil {
			return d, "", fmt.Errorf("preparing %s replay: %w", w.Name, err)
		}
		repRes, err := machine.RunReplay(base, img)
		if err != nil {
			return d, "", fmt.Errorf("replaying %s: %w", w.Name, err)
		}

		d.Rows = append(d.Rows, TraceReplayRow{
			Workload:  w.Name,
			Rung:      "mipsy",
			Class:     "exact",
			Relative:  float64(repRes.Exec) / float64(capRes.Exec),
			Identical: reflect.DeepEqual(repRes, capRes),
		})
		for _, rung := range []struct {
			name string
			cfg  machine.Config
		}{{"mipsy+lat", lat}, {"mxs", mxs}} {
			execRes, err := s.Ref.Run(rung.cfg, prog)
			if err != nil {
				return d, "", fmt.Errorf("%s at rung %s: %w", w.Name, rung.name, err)
			}
			d.Rows = append(d.Rows, TraceReplayRow{
				Workload:  w.Name,
				Rung:      rung.name,
				Class:     string(param.Omission),
				Relative:  float64(repRes.Exec) / float64(execRes.Exec),
				Identical: repRes.Exec == execRes.Exec,
			})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Trace-driven error across the CPU-detail ladder (%dp; replay ExecTicks relative to execution-driven):\n", procs)
	fmt.Fprintf(&b, "  %-16s %-10s %-14s %8s  %s\n", "workload", "rung", "class", "rel", "identical")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "  %-16s %-10s %-14s %8.3f  %v\n", r.Workload, r.Rung, r.Class, r.Relative, r.Identical)
	}
	return d, b.String(), nil
}
