package core_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/hw"
	"flashsim/internal/param"
	"flashsim/internal/runner"
)

var fft = core.Workload{Name: "fft", Make: smallFFT}

// memoRef is a 1-processor reference on a two-worker pool with an
// in-memory store, so the walks of one test share their end points.
func memoRef(t *testing.T) *core.Reference {
	t.Helper()
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewReference(1, true)
	ref.Pool = runner.New(2, store)
	return ref
}

// TestWalkTelescopes: crossing param.Diff one path at a time, in any
// order, starts at the simulator's execution time, ends at the
// hardware model's, and the per-step differences sum to the gap between
// them in ticks — Solo-Mipsy, whose walk turns an operating system on.
func TestWalkTelescopes(t *testing.T) {
	ref := memoRef(t)
	from, to := core.SoloMipsy(1, 225, true), hw.Config(1, true)
	to.JitterPct = 0
	ends, err := ref.Pool.Run(context.Background(), []runner.Job{{Config: from, Prog: smallFFT(1)}, {Config: to, Prog: smallFFT(1)}})
	if err != nil {
		t.Fatal(err)
	}
	forward := param.Diff(from, to)
	reverse := slices.Clone(forward)
	slices.Reverse(reverse)
	shuffled := slices.Clone(forward)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, steps := range map[string][]param.Delta{"forward": forward, "reverse": reverse, "shuffled": shuffled} {
		exec, err := ref.Walk(from, steps, fft)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(exec) != len(steps)+1 || exec[0] != ends[0].Exec || exec[len(steps)] != ends[1].Exec {
			t.Fatalf("%s: walk %v does not run from %d to %d in %d steps", name, exec, ends[0].Exec, ends[1].Exec, len(steps))
		}
		var sum int64
		for i := range steps {
			sum += int64(exec[i+1]) - int64(exec[i])
		}
		if gap := int64(ends[1].Exec) - int64(ends[0].Exec); sum != gap {
			t.Errorf("%s: steps sum to %d ticks, the gap is %d", name, sum, gap)
		}
	}
}

func TestZeroLengthWalkIsOneRun(t *testing.T) {
	ref := memoRef(t)
	exec, err := ref.Walk(core.SimOSMipsy(1, 225, true), nil, fft)
	if err != nil || len(exec) != 1 || exec[0] == 0 {
		t.Fatalf("walk of no steps = %v, %v", exec, err)
	}
	if st := ref.Pool.Stats(); st.Jobs != 1 || st.Ran != 1 {
		t.Errorf("walk of no steps cost %+v, want one run", st)
	}
}

// TestWalkRejectsAnInvalidStepBeforeRunning: a value the registry entry
// refuses and a configuration Validate refuses are both a *StepError
// naming the path, and nothing has been submitted when it is returned.
func TestWalkRejectsAnInvalidStepBeforeRunning(t *testing.T) {
	for _, bad := range []param.Delta{
		{Path: "cpu.clock_mhz", Before: int64(225), After: int64(200)}, // in range, does not divide 900
		{Path: "os.tlb.entries", Before: int64(64), After: int64(-1)},  // out of range
	} {
		ref := memoRef(t)
		steps := []param.Delta{{Path: "os.tlb.handler_cycles", Before: uint64(25), After: uint64(65)}, bad}
		_, err := ref.Walk(core.SimOSMipsy(1, 225, true), steps, fft)
		var step *core.StepError
		if !errors.As(err, &step) || step.Path != bad.Path {
			t.Errorf("%s -> %v: error %v, want a StepError naming the path", bad.Path, bad.After, err)
		}
		if st := ref.Pool.Stats(); st.Jobs != 0 {
			t.Errorf("%s: %d jobs ran before the walk was refused", bad.Path, st.Jobs)
		}
	}
}

// TestDefectInjection measures one defect of the table the way the
// `defects` row does, as a walk of one step, on a base other than its
// own.
func TestDefectInjection(t *testing.T) {
	ds := core.KnownDefects()
	d := ds[slices.IndexFunc(ds, func(d core.Defect) bool { return d.Name == "mxs-fast-issue" })]
	exec, err := core.NewReference(1, true).Walk(core.SimOSMXS(1, true), []param.Delta{d.Delta}, fft)
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(exec[1]) / float64(exec[0])
	t.Logf("%s: relative %.3f", d.Name, rel)
	if rel > 1.001 {
		t.Errorf("fast-issue bug should not slow the simulator down: %.3f", rel)
	}
}
