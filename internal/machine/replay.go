package machine

import (
	"fmt"

	"flashsim/internal/cpu"
	"flashsim/internal/cpu/mipsy"
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
	if prog.Threads != cfg.Procs {
		return Result{}, fmt.Errorf("machine %q: program %s has %d threads but machine has %d processors",
			cfg.Name, prog.FullName(), prog.Threads, cfg.Procs)
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

// instr rebuilds the recorded instruction, for the per-sync outcome and
// the sampled replayStream only (per action it costs replayCPU.Run
// 12-18%); a second op compare here costs the sampled replay 10%.
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
// When cfg.Sampling is enabled the image doubles as the fast-forward
// stream: the sampling engine gates the expanded trace through a
// classic-Mipsy detailed core inside windows and fast-forwards
// functionally between them.
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

func (d *replayDriver) Stream(i int) cpu.Stream {
	return newReplayStream(d.img, i)
}

// NewCore keeps the collapsed-action fast path when it is handed its
// own raw stream (the plain replay mode, bit-identical to Mipsy) and
// falls back to a classic-Mipsy core over the expanded stream when the
// stream has been wrapped — which is exactly the sampled case, where
// the gate must see every instruction to count window boundaries.
func (d *replayDriver) NewCore(i int, clock sim.Clock, src cpu.Stream, port cpu.Port) cpu.CPU {
	if rs, ok := src.(*replayStream); ok && rs.img == d.img {
		return newReplayCPU(clock, d.cfg.Quantum, d.img.actions[i], d.img.tails[i], port)
	}
	return mipsy.New(mipsy.Config{Clock: clock, Quantum: d.cfg.Quantum}, src, port)
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

// replayStream expands a thread's collapsed action list back into an
// instruction-by-instruction stream: each action's skipped compute run
// re-emits as unit-latency ALU instructions. Under the flat-CPI replay
// core this is timing-equivalent to the collapsed form; it exists so
// the sampling gate (and any other stream wrapper) can meter replayed
// instructions exactly like live ones.
type replayStream struct {
	img      *ReplayImage
	acts     []replayAction
	tail     uint64
	pos      int
	fill     uint64 // compute instructions remaining before acts[pos]
	tailDone bool
}

func newReplayStream(img *ReplayImage, i int) *replayStream {
	s := &replayStream{img: img, acts: img.actions[i], tail: img.tails[i]}
	if len(s.acts) > 0 {
		s.fill = s.acts[0].skip
	} else {
		s.fill = s.tail
		s.tailDone = true
	}
	return s
}

// NextRun implements the sampling engine's runSource: it drains the
// pending collapsed compute run (up to max instructions) and the
// action that follows it in one call. The run re-expands to
// unit-latency IntALU fillers, so consuming it wholesale is
// indistinguishable from the same number of Next calls — this is what
// makes a replay image an efficient fast-forward stream.
func (s *replayStream) NextRun(max uint64) (skip uint64, in isa.Instr, hasIn, ok bool) {
	if s.fill > 0 {
		skip = s.fill
		if skip >= max {
			skip = max
			s.fill -= skip
			return skip, isa.Instr{}, false, true
		}
		s.fill = 0
	}
	if s.pos < len(s.acts) {
		in = s.acts[s.pos].instr()
		s.pos++
		if s.pos < len(s.acts) {
			s.fill = s.acts[s.pos].skip
		} else if !s.tailDone {
			s.fill = s.tail
			s.tailDone = true
		}
		return skip, in, true, true
	}
	return skip, isa.Instr{}, false, skip > 0
}

func (s *replayStream) Next() (isa.Instr, bool) {
	if s.fill > 0 {
		s.fill--
		return isa.Instr{Op: isa.IntALU}, true
	}
	if s.pos < len(s.acts) {
		in := s.acts[s.pos].instr()
		s.pos++
		if s.pos < len(s.acts) {
			s.fill = s.acts[s.pos].skip
		} else if !s.tailDone {
			s.fill = s.tail
			s.tailDone = true
		}
		return in, true
	}
	return isa.Instr{}, false
}

// replayCPU replays a collapsed instruction stream with Mipsy's exact
// per-op timing rules (mipsy.CPU.Run is the reference; every branch
// here clones one there).
// Compute instructions always charge one cycle — the trace-driven
// core abstraction.
type replayCPU struct {
	clock   sim.Clock
	port    cpu.Port
	quantum int
	acts    []replayAction
	tail    uint64

	pos        int
	pending    uint64
	tailLoaded bool
	instrs     uint64

	// pendT is the start time of the instruction whose access the port
	// deferred (cpu.Blocking), mirroring mipsy's.
	pendT sim.Ticks
}

func newReplayCPU(clock sim.Clock, quantum int, acts []replayAction, tail uint64, port cpu.Port) *replayCPU {
	if quantum <= 0 {
		quantum = 200
	}
	c := &replayCPU{clock: clock, port: port, quantum: quantum, acts: acts, tail: tail}
	c.loadPending()
	return c
}

// loadPending arms the compute run preceding the next action (or the
// trailing run once actions are exhausted). Maintained invariant:
// pending always describes the instructions before acts[pos].
func (c *replayCPU) loadPending() {
	if c.pos < len(c.acts) {
		c.pending = c.acts[c.pos].skip
	} else if !c.tailLoaded {
		c.pending = c.tail
		c.tailLoaded = true
	}
}

// Deliver implements cpu.Blocking, cloning mipsy's Deliver.
func (c *replayCPU) Deliver(mi cpu.MemInfo) sim.Ticks {
	return c.clock.Align(max(c.pendT+c.clock.Period, mi.Done))
}

// Instructions returns the instructions the core has replayed.
func (c *replayCPU) Instructions() uint64 { return c.instrs }

// Run executes up to one quantum of recorded instructions from t.
func (c *replayCPU) Run(t sim.Ticks) cpu.Outcome {
	period := c.clock.Period
	acts := c.acts
	quantum := c.quantum
	for n := 0; n < quantum; {
		if c.pending > 0 {
			k := uint64(quantum - n)
			if k > c.pending {
				k = c.pending
			}
			t += period * sim.Ticks(k)
			c.pending -= k
			n += int(k)
			c.instrs += k
			continue
		}
		if c.pos >= len(acts) {
			// loadPending's invariant guarantees the tail has been
			// burned by the time we get here.
			return cpu.Outcome{Kind: cpu.Finished, Time: t}
		}
		in := &acts[c.pos]
		c.pos++
		c.loadPending()
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
	return cpu.Outcome{Kind: cpu.Yield, Time: t}
}
