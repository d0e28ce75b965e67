package machine

import (
	"unsafe"

	"flashsim/internal/isa"
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
