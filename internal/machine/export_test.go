package machine

import (
	"unsafe"

	"flashsim/internal/cache"
	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/proto"
	"flashsim/internal/recycle"
	"flashsim/internal/sim"
	"flashsim/internal/vm"
)

// Action is a replayAction as the external tests see it: Arg is Aux
// for every op, and a compute-op action splits a compute run too long
// for one action (SetMaxActionSkip).
type Action struct {
	Op   isa.Op
	Addr uint64
	Skip uint64
	Arg  uint32
}

// Actions returns thread i's action list and trailing compute run.
func (img *ReplayImage) Actions(i int) ([]Action, uint64) {
	out := make([]Action, len(img.actions[i]))
	for k, a := range img.actions[i] {
		out[k] = Action{Op: a.op(), Addr: a.addr, Skip: a.skip(), Arg: a.arg}
	}
	return out, img.tails[i]
}

// ReplayCore returns the replay core over ins, collapsed the way
// PrepareReplay collapses a thread.
func ReplayCore(clock sim.Clock, quantum int, ins []isa.Instr, port cpu.Port) cpu.CPU {
	var acts []replayAction
	skip := uint64(0)
	for _, in := range ins {
		if in.Op.IsCompute() {
			skip++
			continue
		}
		acts = append(acts, replayAction{addr: in.Addr, word: uint32(skip)<<8 | uint32(in.Op), arg: in.Aux})
		skip = 0
	}
	return newReplayCPU(clock, quantum, acts, skip, port)
}

// ActionBytes returns the size of the image's action lists.
func (img *ReplayImage) ActionBytes() uint64 {
	var n uint64
	for _, acts := range img.actions {
		n += uint64(len(acts)) * uint64(ActionSize)
	}
	return n
}

// RunPorts runs prog on cfg like Run and also returns what each node's
// memory port counted: the protocol cases of the lines it fetched.
func RunPorts(cfg Config, prog emitter.Program) (Result, [][proto.NumCases]uint64, error) {
	spy := &portSpy{Driver: NewExecutionDriver(cfg, prog)}
	res, err := RunWith(cfg, spy)
	cases := make([][proto.NumCases]uint64, len(spy.ports))
	for i, p := range spy.ports {
		cases[i] = p.cases
	}
	return res, cases, err
}

// portSpy is a Driver that keeps the ports its cores are built over.
type portSpy struct {
	Driver
	ports []*memPort
}

func (s *portSpy) NewCore(i int, clock sim.Clock, port cpu.Port) cpu.CPU {
	s.ports = append(s.ports, port.(*memPort))
	return s.Driver.NewCore(i, clock, port)
}

// SetWindow runs the engine at window W = w ticks, 0 being the
// lookahead-derived default, until the returned func restores it.
func SetWindow(w sim.Ticks) (restore func()) {
	old := windowOverride
	windowOverride = w
	return func() { windowOverride = old }
}

// SetRunStep caps the compute instructions a replay core or a sampled
// fast-forward takes from a collapsed run in one step, until the
// returned func restores the unbounded default.
func SetRunStep(n uint64) (restore func()) {
	old := runStep
	runStep = n
	return func() { runStep = old }
}

// ActionSize is the bytes one replayAction takes in an image.
const ActionSize = unsafe.Sizeof(replayAction{})

// SetMaxActionSkip makes k the longest compute run one action carries,
// splitting longer runs with compute-op actions, until the returned func
// restores the default. It applies to images prepared meanwhile.
func SetMaxActionSkip(k uint64) (restore func()) {
	old := maxActionSkip
	maxActionSkip = k
	return func() { maxActionSkip = old }
}

// SetEventCap lowers the runaway guard to n dispatched events until the
// returned func restores it.
func SetEventCap(n int) (restore func()) {
	old := eventCap
	eventCap = n
	return func() { eventCap = old }
}

// RunDirectory runs prog on cfg like Run and returns how many lines the
// directory holds a record for at the end of the run, and how many lock
// and barrier variables the run used. It counts them as the run drains,
// before the directory goes back to its bin.
func RunDirectory(cfg Config, prog emitter.Program) (dirLines, syncVars int, err error) {
	spy := &drainSpy{portSpy: portSpy{Driver: NewExecutionDriver(cfg, prog)}}
	spy.drained = func(m *Machine) {
		dirLines, syncVars = m.mem.Directory().Lines(), len(m.locks)+len(m.barriers)
	}
	_, err = RunWith(cfg, spy)
	return dirLines, syncVars, err
}

// drainSpy is a portSpy that calls drained on the machine when the run
// finishes cleanly.
type drainSpy struct {
	portSpy
	drained func(*Machine)
}

func (s *drainSpy) Finish(ok bool) (emitter.Stats, error) {
	if ok {
		s.drained(s.ports[0].m)
	}
	return s.portSpy.Finish(ok)
}

// KeptNodes and KeptMachines are the bins' bounds.
const (
	KeptNodes    = keptNodes
	KeptMachines = keptMachines
)

// partBin is one bin of machine parts as the tests see it.
type partBin struct {
	name  string
	bound int
	view  func() (free []any, made uint64)
	drop  func()
}

func binOf[T any](name string, bound int, b *recycle.Bin[*T]) partBin {
	return partBin{
		name:  name,
		bound: bound,
		view: func() (free []any, made uint64) {
			b.Locked(func(parts *[]*T, n uint64) {
				for _, p := range *parts {
					free = append(free, p)
				}
				made = n
			})
			return free, made
		},
		drop: func() { b.Locked(func(parts *[]*T, _ uint64) { *parts = nil }) },
	}
}

var partBins = []partBin{
	binOf("L1", keptNodes, l1Parts),
	binOf("L2", keptNodes, l2Parts),
	binOf("OS", keptMachines, osParts),
	binOf("FlashLite", keptMachines, flashParts),
	binOf("NUMA", keptMachines, numaParts),
}

// FreeParts returns every part the bins hold, by bin, with each bin's
// bound, and how many parts the bins have made so far.
func FreeParts() (free map[string][]any, bound map[string]int, made uint64) {
	free, bound = map[string][]any{}, map[string]int{}
	for _, b := range partBins {
		parts, n := b.view()
		free[b.name], bound[b.name] = parts, b.bound
		made += n
	}
	return free, bound, made
}

// DropFreeParts empties every bin: the parts of a process that has not
// run anything yet.
func DropFreeParts() {
	for _, b := range partBins {
		b.drop()
	}
}

// ScribbleParts makes every machine fill its parts with junk just before
// it gives them back, until the returned func restores the default: tag
// arrays, TLBs, directory (its invariant checks on), network and
// controller reservations all hold what a later build must reset.
func ScribbleParts() (restore func()) {
	old := scribble
	scribble = scribbleParts
	return func() { scribble = old }
}

func scribbleParts(m *Machine) {
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	procs := uint64(m.cfg.Procs)
	for _, n := range m.nodes {
		for _, c := range []*cache.Cache{n.port.l1, n.port.l2} {
			cfg := c.Config()
			for k := uint64(0); k < 2*cfg.Size/cfg.LineSize; k++ {
				c.Insert(rnd(1<<44), cache.State(1+rnd(3)))
			}
		}
		if t := m.os.TLB(n.id); t != nil {
			for k := 0; k < 1000; k++ {
				t.Access(rnd(1 << 20))
			}
		}
	}
	m.mem.Directory().EnableInvariantChecks()
	for k := 0; k < 4000; k++ {
		t := sim.Ticks(rnd(1 << 30))
		node := int(rnd(procs))
		pa := vm.PhysPage{Node: int32(rnd(procs)), Frame: uint32(rnd(64))}.Addr(rnd(vm.PageSize)) &^ 127
		switch rnd(4) {
		case 0:
			m.mem.Read(t, node, pa)
		case 1:
			m.mem.Write(t, node, pa)
		case 2:
			m.mem.Writeback(t, node, pa)
		default:
			m.mem.Replace(t, node, pa)
		}
	}
}
