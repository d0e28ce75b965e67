package machine_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/sim"
	"flashsim/internal/workload"
)

// TestEventCapStopsTheRun holds the runaway guard to its contract: a
// run that dispatches more events than the cap fails with the cap's own
// error, naming the cap and the simulated time, even while its rounds
// keep deferring ops — not as a deadlock once some window quiesces.
func TestEventCapStopsTheRun(t *testing.T) {
	defer machine.SetEventCap(1000)()
	_, err := machine.Run(simpleConfig(2), trivialProgram(2, 1<<14))
	if err == nil {
		t.Fatal("a run past the event cap succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "event cap") || !strings.Contains(msg, "1000") || !strings.Contains(msg, "t=") ||
		strings.Contains(msg, "deadlock") {
		t.Errorf("error %q, want the event cap's, naming the cap and the time", msg)
	}
	if !errors.Is(err, machine.ErrEventCap) {
		t.Errorf("error %q does not wrap machine.ErrEventCap", msg)
	}
}

// TestRunFailuresAreTyped: a run that deadlocks (one processor taking a
// lock it holds) fails with ErrDeadlock, a run past the event cap with
// ErrEventCap and a run whose workload panics with emitter.ErrPanicked,
// each matching its own sentinel and no other.
func TestRunFailuresAreTyped(t *testing.T) {
	selfLock := emitter.Program{
		Name:    "self-lock",
		Threads: 1,
		Body: func(th *emitter.Thread, _ any) {
			th.Barrier(emitter.BarrierStart)
			th.Op(isa.Lock, emitter.None, emitter.None) // Thread.Lock would deadlock the emitter too
			th.Op(isa.Lock, emitter.None, emitter.None)
			th.Barrier(emitter.BarrierEnd)
		},
	}
	dies := emitter.Program{
		Name:    "dies",
		Threads: 1,
		Body: func(th *emitter.Thread, _ any) {
			th.IntOps(100)
			panic("workload exploded")
		},
	}
	_, deadlocked := machine.Run(simpleConfig(1), selfLock)
	_, panicked := machine.Run(simpleConfig(1), dies)
	restore := machine.SetEventCap(1000)
	_, capped := machine.Run(simpleConfig(2), trivialProgram(2, 1<<14))
	restore()
	sentinels := []error{machine.ErrDeadlock, machine.ErrEventCap, emitter.ErrPanicked}
	for _, c := range []struct {
		name string
		err  error
		is   error
	}{
		{"deadlocked", deadlocked, machine.ErrDeadlock},
		{"capped", capped, machine.ErrEventCap},
		{"panicking-workload", panicked, emitter.ErrPanicked},
	} {
		for _, s := range sentinels {
			if errors.Is(c.err, s) != (s == c.is) {
				t.Errorf("%s run: error %v, want one that is %q and no other sentinel (%q: %v)",
					c.name, c.err, c.is, s, errors.Is(c.err, s))
			}
		}
	}
	if msg := panicked.Error(); !strings.Contains(msg, "emitter thread 0 panicked: workload exploded") {
		t.Errorf("panicking-workload run: error %q lost the panic's text", msg)
	}
}

// TestEngineConverges compares each case's exec time at the engine's
// defaults with its brute-force limit: a window W of one tick and a
// one-instruction quantum, where no node runs ahead of the shared state
// it reads. An engine whose constants are not model error agrees within
// 0.5 % on every case. knownUnconverged names the cases today's window
// barrier moves further (ROADMAP item 1); the test fails when one of
// them converges, so that the list only shrinks, and when any other
// case diverges.
func TestEngineConverges(t *testing.T) {
	hwRef := func(procs int) machine.Config {
		cfg := hw.Config(procs, true)
		cfg.JitterPct = 0
		return cfg
	}
	simos := func(procs int) machine.Config { return core.SimOSMipsy(procs, 150, true) }
	solo := func(procs int) machine.Config { return core.SoloMipsy(procs, 150, true) }
	cases := []struct {
		name  string
		cfg   func(procs int) machine.Config
		app   string
		procs int
	}{
		{"hw/fft/4p", hwRef, "fft", 4},
		{"simos-mipsy150/fft/4p", simos, "fft", 4},
		{"hw/ocean/1p", hwRef, "ocean", 1},
		{"solo-mipsy150/ocean/1p", solo, "ocean", 1},
		{"hw/barnes/32p", hwRef, "barnes", 32},
		{"hw/oltp/32p", hwRef, "oltp", 32},
	}
	knownUnconverged := []string{
		"hw/fft/4p", "simos-mipsy150/fft/4p", "hw/ocean/1p", "solo-mipsy150/ocean/1p", "hw/barnes/32p",
	}
	run := func(group string, limit bool) []sim.Ticks {
		exec := make([]sim.Ticks, len(cases))
		t.Run(group, func(t *testing.T) {
			for i, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					def, err := workload.Lookup(c.app)
					if err != nil {
						t.Fatal(err)
					}
					vals, err := def.Resolve(nil, true)
					if err != nil {
						t.Fatal(err)
					}
					cfg := c.cfg(c.procs)
					if limit {
						cfg.Quantum = 1
					}
					res, err := machine.Run(cfg, def.Build(vals, c.procs))
					if err != nil {
						t.Fatal(err)
					}
					exec[i] = res.Exec
				})
			}
		})
		return exec
	}
	defaults := run("defaults", false)
	defer machine.SetWindow(1)()
	limits := run("limit", true)
	for i, c := range cases {
		if defaults[i] == 0 || limits[i] == 0 {
			continue // the run failed, and said so
		}
		gap := 100 * (float64(defaults[i]) - float64(limits[i])) / float64(limits[i])
		t.Logf("%s: %d ticks at the defaults, %d at the limit (%+.2f %%)", c.name, defaults[i], limits[i], gap)
		converged := math.Abs(gap) <= 0.5
		switch known := slices.Contains(knownUnconverged, c.name); {
		case converged && known:
			t.Errorf("%s converged (%d ticks at the defaults, %d at the limit, %+.2f %%): take it off knownUnconverged",
				c.name, defaults[i], limits[i], gap)
		case !converged && !known:
			t.Errorf("%s: %d ticks at the defaults, %d at the limit: %+.2f %%, beyond 0.5 %%",
				c.name, defaults[i], limits[i], gap)
		}
	}
}
