package machine

import (
	"errors"
	"fmt"
	"sync"

	"flashsim/internal/cpu"
	"flashsim/internal/cpu/mipsy"
	"flashsim/internal/cpu/mxs"
	"flashsim/internal/emitter"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// ErrDeadlock and ErrEventCap are the run failures errors.Is tells apart.
var ErrDeadlock, ErrEventCap = errors.New("deadlock"), errors.New("event cap")

// Driver supplies the instruction side of one machine run: an address
// space and per-node cores over the driver's own instruction source.
// It is the execution-engine seam — the execution-driven emitter,
// trace replay, and trace capture are all drivers over the same
// machine. Sampling belongs to the replay driver: its cores run the
// schedule themselves.
//
// Lifecycle: RunWith calls Space/Threads/Workload for validation,
// NewCore once per node during build, drives the event loop to
// quiescence, and then calls Finish exactly once — with ok=false on
// any failure path — so drivers can release producer goroutines and
// seal artifacts. An execution driver may be one of several members of
// a shared emission (RunShared): its streams are its own reader set,
// and Finish detaches that set, so the producers outlive a failed
// member and stop with the last one.
type Driver interface {
	// Workload names the instruction source ("fft/p4", a trace's
	// recorded workload) for results and metrics.
	Workload() string
	// Threads is the number of per-node streams the driver supplies;
	// it must equal the machine's processor count.
	Threads() int
	// Space is the program's address space (the page-table layout).
	Space() *emitter.AddressSpace
	// NewCore builds node i's processor over the driver's node-i
	// instruction source and the node's memory port.
	NewCore(i int, clock sim.Clock, port cpu.Port) cpu.CPU
	// Finish releases the driver's resources and returns the
	// instruction-stream accounting folded into Result.Metrics. ok
	// reports whether the run drained cleanly; the error returned on
	// ok=true failures (stream errors, artifact sealing) fails the run.
	Finish(ok bool) (emitter.Stats, error)
}

// RunWith executes one run of cfg with the supplied driver: the single
// engine entry point behind Run, RunCapture, and RunReplay. Each call
// builds its machine from the parts earlier runs gave back, each reset
// to the state its New gives, so no result depends on what ran before;
// a run that drains cleanly gives them back (parts.go). Only the replay
// driver takes a sampling schedule.
func RunWith(cfg Config, d Driver) (Result, error) {
	// Every way out that has not reached Finish takes it here: a rejected
	// configuration, and a panic in build or the event loop (a coherence
	// invariant violation, a core or stream failure). The panic goes on
	// to the caller; the driver's producer goroutines and artifacts must
	// not stay behind it.
	released := false
	defer func() {
		if !released {
			d.Finish(false)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if _, replay := d.(*replayDriver); cfg.Sampling.Enabled && !replay {
		return Result{}, fmt.Errorf("machine %q: sampling runs only on trace replay, not on execution-driven %s", cfg.Name, d.Workload())
	}
	if d.Threads() != cfg.Procs {
		return Result{}, fmt.Errorf("machine %q: %s supplies %d instruction streams but machine has %d processors",
			cfg.Name, d.Workload(), d.Threads(), cfg.Procs)
	}
	m := build(cfg, d.Space(), func(i int, clock sim.Clock, p *memPort) cpu.CPU {
		return d.NewCore(i, clock, p)
	})
	m.drive()

	released = true
	em, err := d.Finish(m.runErr == nil && m.finished == cfg.Procs)
	if err != nil {
		return Result{}, fmt.Errorf("machine %q: %w", cfg.Name, err)
	}
	if m.runErr != nil {
		return Result{}, m.runErr
	}
	if m.finished != cfg.Procs {
		return Result{}, fmt.Errorf("machine %q: %w: %d of %d processors finished (pending events %d)",
			cfg.Name, ErrDeadlock, m.finished, cfg.Procs, m.queue.Len())
	}
	res := m.collect(em)
	m.release()
	res.Workload = d.Workload()
	return res, nil
}

// execDriver is the execution-driven driver: a launched program whose
// threads emit into the streams as its reader sets need them, read
// through one of those sets.
type execDriver struct {
	cfg     Config
	name    string
	space   *emitter.AddressSpace
	streams *emitter.Streams
	set     int
}

// NewExecutionDriver launches prog's emitter threads and returns the
// execution-driven driver over them. The driver owns the producers and
// the slabs they borrowed from the process; RunWith's Finish call
// releases both on every path.
func NewExecutionDriver(cfg Config, prog emitter.Program) Driver {
	space, streams := prog.Launch()
	return &execDriver{cfg: cfg, name: prog.FullName(), space: space, streams: streams}
}

func (d *execDriver) Workload() string             { return d.name }
func (d *execDriver) Threads() int                 { return len(d.streams.Readers) }
func (d *execDriver) Space() *emitter.AddressSpace { return d.space }

// Finish detaches the driver's reader set; the last set to go stops the
// producers and returns their slabs.
func (d *execDriver) Finish(ok bool) (emitter.Stats, error) {
	d.streams.Detach(d.set)
	// Surface a workload panic or deadlock over the machine's own
	// failure: the stream ending is usually why the run did not drain. A
	// set that drained saw every thread's end, so either is recorded by
	// then.
	if err := d.streams.Err(); err != nil || !ok {
		return emitter.Stats{}, err
	}
	return d.streams.Counters(d.set), nil
}

// RunShared runs prog on every configuration in cfgs from one emission:
// the program launches once with a reader set per configuration, and
// each member's RunWith runs as a goroutine over the shared address
// space, its result bit-identical to Run(cfgs[k], prog). member is
// called on member k's goroutine with that run, and must recover what
// the run panics with; a member that fails, or never runs, detaches its
// readers, so the producers and the other members go on. RunShared
// returns when every member has.
func RunShared(cfgs []Config, prog emitter.Program, member func(k int, run func() (Result, error))) {
	space, streams := prog.LaunchShared(len(cfgs))
	var wg sync.WaitGroup
	for k, cfg := range cfgs {
		d := &execDriver{cfg: cfg, name: prog.FullName(), space: space, streams: streams, set: k}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer streams.Detach(k)
			member(k, func() (Result, error) {
				if err := checkExec(cfg, prog); err != nil {
					return Result{}, err
				}
				return RunWith(cfg, d)
			})
		}()
	}
	wg.Wait()
}

// NewCore builds the processor model cfg selects over node i's
// reader. Plain runs and captures both build here, so fidelity knobs
// (latencies, MXS bugs, per-core seeds) behave identically in either.
func (d *execDriver) NewCore(i int, clock sim.Clock, port cpu.Port) cpu.CPU {
	cfg, src := d.cfg, d.streams.Set(d.set)[i]
	switch cfg.CPU {
	case CPUMXS:
		mc := mxs.DefaultConfig(clock)
		mc.Fidelity = cfg.MXS
		mc.Quantum = cfg.Quantum
		mc.Seed = cfg.Seed + uint64(i)*0x9E37
		return mxs.New(mc, src, port)
	default:
		return mipsy.New(mipsy.Config{
			Clock:             clock,
			ModelInstrLatency: cfg.ModelInstrLatency,
			Quantum:           cfg.Quantum,
		}, src, port)
	}
}

// captureDriver decorates an execution driver with a trace writer: the
// program launches with the writer's tap installed, and Finish seals
// the container once every producer has flushed through it. Capture is
// a decoration, not a separate entry point — the machine underneath is
// byte-identical to an untapped run.
type captureDriver struct {
	*execDriver
	tw *trace.Writer
}

// NewCaptureDriver launches prog with every emitted batch mirrored
// into tw and returns the capturing driver.
func NewCaptureDriver(cfg Config, prog emitter.Program, tw *trace.Writer) (Driver, error) {
	if tw == nil {
		return nil, fmt.Errorf("machine %q: capture needs a trace writer", cfg.Name)
	}
	if tw.Threads() != prog.Threads {
		return nil, fmt.Errorf("machine %q: trace writer expects %d threads, program %s has %d",
			cfg.Name, tw.Threads(), prog.FullName(), prog.Threads)
	}
	prog.Tap = tw.Tap
	return &captureDriver{
		execDriver: NewExecutionDriver(cfg, prog).(*execDriver),
		tw:         tw,
	}, nil
}

func (d *captureDriver) Finish(ok bool) (emitter.Stats, error) {
	if !ok || d.streams.Err() != nil {
		return d.execDriver.Finish(ok)
	}
	// Every reader drained (all cores finished), so every producer has
	// run to its end through the tap; the seal comes before the slabs
	// the tap read go back to the process.
	d.tw.SetLayout(d.space)
	sealErr := d.tw.Finish()
	em, err := d.execDriver.Finish(true)
	if err == nil && sealErr != nil {
		err = fmt.Errorf("sealing trace: %w", sealErr)
	}
	return em, err
}
