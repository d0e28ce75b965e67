package machine

import (
	"unsafe"

	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
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
// and barrier variables the run used.
func RunDirectory(cfg Config, prog emitter.Program) (dirLines, syncVars int, err error) {
	spy := &portSpy{Driver: NewExecutionDriver(cfg, prog)}
	if _, err := RunWith(cfg, spy); err != nil {
		return 0, 0, err
	}
	m := spy.ports[0].m
	return m.mem.Directory().Lines(), len(m.locks) + len(m.barriers), nil
}
