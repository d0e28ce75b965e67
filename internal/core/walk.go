package core

import (
	"fmt"

	"flashsim/internal/machine"
	"flashsim/internal/param"
	"flashsim/internal/sim"
)

// StepError reports the step of a walk that cannot be taken: its value
// does not fit the registry entry, or the configuration it leads to does
// not validate.
type StepError struct {
	Path string
	Err  error
}

func (e *StepError) Error() string { return fmt.Sprintf("walk step %s: %v", e.Path, e.Err) }
func (e *StepError) Unwrap() error { return e.Err }

// Walk crosses from one configuration to another a registry path at a
// time and returns w's execution time at every point on the way: exec[0]
// is from, exec[i] is from with steps[:i] applied, so exec[i+1]-exec[i] is
// what steps[i] alone changed and the differences sum to the whole gap
// exactly. Every intermediate configuration is built and validated before
// anything runs; they run as one batch through the reference's pool. It
// is the one way core and harness compare two configurations a knob
// apart: a defect is a walk of one step, the simulator-hardware gap a
// walk over param.Diff.
func (r *Reference) Walk(from machine.Config, steps []param.Delta, w Workload) ([]sim.Ticks, error) {
	prog := w.Make(from.Procs)
	b := r.Batch().Sim(from, prog)
	for _, d := range steps {
		err := param.SetValue(&from, d.Path, d.After)
		if err == nil {
			err = from.Validate()
		}
		if err != nil {
			return nil, &StepError{d.Path, err}
		}
		b.Sim(from, prog)
	}
	ms, err := b.Run()
	if err != nil {
		return nil, fmt.Errorf("walk on %s: %w", w.Name, err)
	}
	exec := make([]sim.Ticks, len(ms))
	for i, m := range ms {
		exec[i] = m.Mean
	}
	return exec, nil
}
