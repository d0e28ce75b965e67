package machine

import (
	"unsafe"

	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
)

// Action is a replayAction as the external tests see it: Arg is Size
// for a load or store and Aux for every other op.
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
		out[k] = Action{Op: a.op, Addr: a.addr, Skip: a.skip, Arg: a.arg}
	}
	return out, img.tails[i]
}

// ActionBytes returns the size of the image's action lists.
func (img *ReplayImage) ActionBytes() uint64 {
	var n uint64
	for _, acts := range img.actions {
		n += uint64(len(acts)) * uint64(unsafe.Sizeof(replayAction{}))
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

// SetEventCap lowers the runaway guard to n dispatched events until the
// returned func restores it.
func SetEventCap(n int) (restore func()) {
	old := eventCap
	eventCap = n
	return func() { eventCap = old }
}
