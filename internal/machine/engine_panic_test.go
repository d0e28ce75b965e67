package machine_test

import (
	"runtime"
	"testing"
	"time"

	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/sim"
)

// panickyDriver is an execution driver whose node-1 core panics on its
// third scheduling slice, the way a coherence-invariant violation or a
// cache-state bug would surface from inside the event loop. It records
// every Finish call.
type panickyDriver struct {
	machine.Driver
	finishes []bool
}

type panickyCore struct {
	cpu.CPU
	slices int
}

func (c *panickyCore) Run(t sim.Ticks) cpu.Outcome {
	if c.slices++; c.slices == 3 {
		panic("core exploded")
	}
	return c.CPU.Run(t)
}

func (d *panickyDriver) NewCore(i int, clock sim.Clock, src cpu.Stream, port cpu.Port) cpu.CPU {
	core := d.Driver.NewCore(i, clock, src, port)
	if i == 1 {
		return &panickyCore{CPU: core}
	}
	return core
}

func (d *panickyDriver) Finish(ok bool) (emitter.Stats, error) {
	d.finishes = append(d.finishes, ok)
	return d.Driver.Finish(ok)
}

// TestPanicInEventLoopStillFinishesDriver holds RunWith to its contract
// on the one path that used to skip it: a panic out of the event loop
// must still call Finish exactly once with ok=false — releasing the
// emitter goroutines parked on their channels — and then keep going to
// the caller (the runner pool turns it into a per-job error and serves
// on). The subtest keeps the name it had when runs could be split
// across shards: one event queue is the one-shard case.
func TestPanicInEventLoopStillFinishesDriver(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		cfg := simpleConfig(2)
		before := runtime.NumGoroutine()
		d := &panickyDriver{Driver: machine.NewExecutionDriver(cfg, trivialProgram(2, 1<<16))}
		func() {
			defer func() {
				if r := recover(); r != "core exploded" {
					t.Errorf("recovered %v, want the core's panic", r)
				}
			}()
			machine.RunWith(cfg, d)
			t.Error("RunWith returned instead of panicking")
		}()
		if len(d.finishes) != 1 || d.finishes[0] {
			t.Errorf("Finish calls %v, want exactly one with ok=false", d.finishes)
		}
		// Emitter threads exit on their own once released; give them a
		// moment to be scheduled.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines before the run, %d after it", before, n)
		}
	})
}
