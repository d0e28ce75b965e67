package machine

import (
	"fmt"

	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// RunCapture executes prog exactly like Run while mirroring every
// emitted batch into tw, sealing the container when the run drains.
// The capture adds no timing perturbation: the emitted streams and the
// simulated result are byte-identical to an untapped Run. It is the
// capture driver decoration over the execution engine, not a separate
// run loop.
func RunCapture(cfg Config, prog emitter.Program, tw *trace.Writer) (Result, error) {
	if err := checkExec(cfg, prog); err != nil {
		return Result{}, err
	}
	d, err := NewCaptureDriver(cfg, prog, tw)
	if err != nil {
		return Result{}, err
	}
	return RunWith(cfg, d)
}

// replayAction is one memory, sync, or syscall instruction preceded by
// a run of `skip` collapsed 1-cycle compute instructions. Collapsing is
// exact under classic Mipsy timing: compute instructions make no
// memory-system calls, so burning a run in one step reaches the same
// time, the same stats, and the same next reservation as stepping them
// one by one — and the quantum bound still yields at the same
// instruction boundaries.
//
// It keeps, in 24 bytes, the isa.Instr fields replay reads: arg is Size
// for a load or store and Aux (lock or barrier id, CACHE sub-op, syscall
// number) for any other op, the one of the two its consumers take.
// Dep1/Dep2 go: only MXS reads them, and replay never runs MXS.
type replayAction struct {
	addr uint64
	skip uint64
	arg  uint32
	op   isa.Op
}

// instr rebuilds the recorded instruction, for a sync op's Outcome
// only: a core reads the action's fields directly.
func (a *replayAction) instr() isa.Instr {
	var size uint32
	if a.op-isa.Load < 2 { // Load or Store, adjacent opcodes
		size = a.arg
	}
	return isa.Instr{Op: a.op, Addr: a.addr, Size: size, Aux: a.arg ^ size}
}

// ReplayImage is a trace decoded and collapsed into directly
// executable per-thread action lists: the prepare-once/replay-many
// form. It is immutable after PrepareReplay and safe to share across
// concurrent RunReplay calls (each builds fresh cursors and cores).
type ReplayImage struct {
	workload string
	artifact string
	threads  int
	space    *emitter.AddressSpace
	actions  [][]replayAction
	tails    []uint64
	instrs   uint64
	batches  uint64
}

// PrepareReplay decodes tr completely (paying CRC, decompression, and
// codec validation once) and returns the replayable image.
func PrepareReplay(tr *trace.Trace) (*ReplayImage, error) {
	img := &ReplayImage{
		workload: tr.Workload(),
		artifact: tr.Meta().Artifact,
		threads:  tr.Threads(),
		space:    tr.Space(),
		actions:  make([][]replayAction, tr.Threads()),
		tails:    make([]uint64, tr.Threads()),
		instrs:   tr.Instructions(),
		batches:  tr.Batches(),
	}
	// Instructions are classified off the chunk bytes into one scratch
	// buffer and each thread's actions copied out at their exact length,
	// the only copy made. The longest thread sizes the buffer, up to 1M
	// actions (24 MB): the index's counts are unproven file input.
	longest := uint64(0)
	for i := 0; i < tr.Threads(); i++ {
		longest = max(longest, tr.ThreadInstructions(i))
	}
	scratch := make([]replayAction, 0, min(longest, 1<<20))
	var in isa.Instr
	for i := 0; i < tr.Threads(); i++ {
		acts, skip, cur := scratch[:0], uint64(0), tr.Thread(i)
		for {
			ok, err := cur.Next(&in)
			if err != nil {
				return nil, fmt.Errorf("machine: preparing replay of thread %d: %w", i, err)
			}
			if !ok {
				break
			}
			if !in.Op.IsMem() && !in.Op.IsSync() && in.Op != isa.Syscall {
				skip++
				continue
			}
			arg := in.Aux
			if in.Op == isa.Load || in.Op == isa.Store {
				arg = in.Size
			}
			acts = append(acts, replayAction{addr: in.Addr, skip: skip, arg: arg, op: in.Op})
			skip = 0
		}
		img.actions[i] = append([]replayAction(nil), acts...)
		img.tails[i] = skip
		scratch = acts
	}
	return img, nil
}

// Workload returns the captured program's FullName.
func (img *ReplayImage) Workload() string { return img.workload }

// Artifact returns the trace's content-address fingerprint ("" when
// the capture did not record one; such images are not memoizable).
func (img *ReplayImage) Artifact() string { return img.artifact }

// Threads returns the image's thread count.
func (img *ReplayImage) Threads() int { return img.threads }

// RunReplay executes a prepared trace image on a machine described by
// cfg: the same memory system, OS model, and event scheduling as Run,
// with the core model replaced by a trace-driven core that replays the
// recorded streams at one cycle per compute instruction.
//
// Under the default configuration (classic Mipsy, no instruction
// latencies) the replay core's timing rules coincide with Mipsy's, so
// the Result — including the memory-system metrics — is bit-identical
// to the execution-driven run that captured the trace. Under other
// rungs of the detail ladder (instruction latencies, MXS) the replay
// deliberately keeps its flat-CPI core: the difference IS the error
// trace-driven simulation introduces, which the trace experiment
// reports as taxonomy rows.
//
// When cfg.Sampling is enabled the replay core runs only the detailed
// windows, and a functional fast-forward advances its action cursor
// between them. Trace replay is the only mode that samples.
func RunReplay(cfg Config, img *ReplayImage) (Result, error) {
	return RunWith(cfg, NewReplayDriver(cfg, img))
}

// replayDriver drives a machine from a prepared trace image.
type replayDriver struct {
	cfg Config
	img *ReplayImage
}

// NewReplayDriver returns the trace-driven driver over img.
func NewReplayDriver(cfg Config, img *ReplayImage) Driver {
	return &replayDriver{cfg: cfg, img: img}
}

func (d *replayDriver) Workload() string             { return d.img.workload }
func (d *replayDriver) Threads() int                 { return d.img.threads }
func (d *replayDriver) Space() *emitter.AddressSpace { return d.img.space }

// NewCore builds node i's replay core, under the sampling schedule
// when cfg enables one.
func (d *replayDriver) NewCore(i int, clock sim.Clock, port cpu.Port) cpu.CPU {
	c := newReplayCPU(clock, d.cfg.Quantum, d.img.actions[i], d.img.tails[i], port)
	if !d.cfg.Sampling.Enabled {
		return c
	}
	return newSampledCPU(d.cfg.Sampling, clock, c, port)
}

func (d *replayDriver) Finish(bool) (emitter.Stats, error) {
	// The recorded stream accounting stands in for the live emitter
	// counters. Slab reuses equal batches in a machine-fed run (every
	// consumed buffer is recycled), so the metrics match bit for bit.
	return emitter.Stats{
		Batches:      d.img.batches,
		Instructions: d.img.instrs,
		SlabReuses:   d.img.batches,
	}, nil
}

// runStep caps the compute instructions a replay core or a sampled
// fast-forward consumes from one collapsed run in one step. It is
// unbounded; tests set it to 1 (SetRunStep), which steps every run
// instruction by instruction, the oracle the bulk path must equal.
var runStep = ^uint64(0)

// replayStream is a thread's action cursor: its position in the
// collapsed action list. fill is the compute run still ahead of
// acts[pos], or the trailing run once the actions are spent. The
// replay core and the sampled fast-forward advance the same cursor.
type replayStream struct {
	acts     []replayAction
	tail     uint64
	pos      int
	fill     uint64
	tailDone bool
}

// load arms the compute run preceding acts[pos] (or the trailing run
// once the actions are exhausted).
func (s *replayStream) load() {
	if s.pos < len(s.acts) {
		s.fill = s.acts[s.pos].skip
	} else if !s.tailDone {
		s.fill = s.tail
		s.tailDone = true
	}
}

// NextRun consumes up to max instructions: the pending compute run
// (capped at max) and then, if the cap was not hit, the action that
// follows it. skip is the run length consumed; a is the action, nil
// when there is none; ok=false means the cursor is exhausted (a final
// trailing run still returns skip > 0 with ok=true first).
func (s *replayStream) NextRun(max uint64) (skip uint64, a *replayAction, ok bool) {
	max = min(max, runStep)
	if s.fill > 0 {
		if s.fill >= max {
			s.fill -= max
			return max, nil, true
		}
		skip, s.fill = s.fill, 0
	}
	if s.pos < len(s.acts) {
		a = &s.acts[s.pos]
		s.pos++
		s.load()
		return skip, a, true
	}
	return skip, nil, skip > 0
}

// replayCPU replays a collapsed instruction stream with Mipsy's exact
// per-op timing rules (mipsy.CPU.Run is the reference; every branch
// here clones one there).
// Compute instructions always charge one cycle — the trace-driven
// core abstraction.
type replayCPU struct {
	replayStream
	clock   sim.Clock
	port    cpu.Port
	quantum int
	instrs  uint64

	// stop is the instruction count at which the current detailed
	// window closes (never, unsampled); eof reports that the actions
	// ran out, which tells a closed window's Finished from the end.
	stop uint64
	eof  bool

	// pendT is the start time of the instruction whose access the port
	// deferred (cpu.CPU.Deliver), mirroring mipsy's.
	pendT sim.Ticks
}

func newReplayCPU(clock sim.Clock, quantum int, acts []replayAction, tail uint64, port cpu.Port) *replayCPU {
	if quantum <= 0 {
		quantum = 200
	}
	c := &replayCPU{replayStream: replayStream{acts: acts, tail: tail}, clock: clock, port: port, quantum: quantum, stop: ^uint64(0)}
	c.load()
	return c
}

// Deliver implements cpu.CPU, cloning mipsy's Deliver.
func (c *replayCPU) Deliver(mi cpu.MemInfo) sim.Ticks {
	return c.clock.Align(max(c.pendT+c.clock.Period, mi.Done))
}

// Instructions returns the instructions the core has replayed.
func (c *replayCPU) Instructions() uint64 { return c.instrs }

// Run executes up to one quantum of recorded instructions from t. A
// window budget that runs out inside the quantum ends the call there
// with Finished, where Mipsy over a stream gated at that count stops.
func (c *replayCPU) Run(t sim.Ticks) cpu.Outcome {
	period := c.clock.Period
	acts := c.acts
	lim, closes := c.quantum, false
	if left := c.stop - c.instrs; left < uint64(lim) {
		lim, closes = int(left), true
	}
	for n := 0; n < lim; {
		if c.fill > 0 {
			k := min(uint64(lim-n), c.fill, runStep)
			t += period * sim.Ticks(k)
			c.fill -= k
			n += int(k)
			c.instrs += k
			continue
		}
		if c.pos >= len(acts) {
			// load's invariant guarantees the tail has been burned by
			// the time we get here.
			c.eof = true
			return cpu.Outcome{Kind: cpu.Finished, Time: t}
		}
		in := &acts[c.pos]
		c.pos++
		c.load()
		n++
		c.instrs++
		switch in.op {
		case isa.Lock, isa.Unlock, isa.Barrier:
			t += period
			return cpu.Outcome{Kind: cpu.SyncOp, Time: t, Instr: in.instr()}

		case isa.Load:
			mi := c.port.Load(t, in.addr, in.arg)
			if mi.Pending() {
				c.pendT = t
				return cpu.Outcome{Kind: cpu.Blocked, Time: t}
			}
			t = c.clock.Align(max(t+period, mi.Done))
			if mi.WentToMemory() {
				return cpu.Outcome{Kind: cpu.Yield, Time: t}
			}

		case isa.Store:
			mi := c.port.Store(t, in.addr, in.arg)
			if mi.Pending() {
				c.pendT = t
				return cpu.Outcome{Kind: cpu.Blocked, Time: t}
			}
			t = c.clock.Align(max(t+period, mi.Done))
			if mi.WentToMemory() {
				return cpu.Outcome{Kind: cpu.Yield, Time: t}
			}

		case isa.Prefetch:
			c.port.Prefetch(t, in.addr)
			t += period

		case isa.CacheOp:
			mi := c.port.CacheOp(t, in.addr, in.arg)
			if mi.Pending() {
				c.pendT = t
				return cpu.Outcome{Kind: cpu.Blocked, Time: t}
			}
			t = c.clock.Align(max(t+period, mi.Done))

		case isa.Syscall:
			t += period * sim.Ticks(1+c.port.SyscallCost(in.arg))

		default:
			// Unreachable via PrepareReplay's classification; charge a
			// cycle like any compute instruction.
			t += period
		}
	}
	if closes {
		return cpu.Outcome{Kind: cpu.Finished, Time: t}
	}
	return cpu.Outcome{Kind: cpu.Yield, Time: t}
}
