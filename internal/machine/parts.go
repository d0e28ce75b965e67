package machine

import (
	"flashsim/internal/cache"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
	"flashsim/internal/recycle"
)

// The parts a machine is built from belong to the process, as the
// emitter's slabs do: build takes each from its bin and resets it to the
// state its New gives, and a run that drains cleanly gives every one
// back once collect has read its counters (DESIGN.md §7, "Part
// lifetime"). A run that fails or panics gives nothing back.
var (
	l1Parts    = recycle.NewBin(keptNodes, newPart[cache.Cache])
	l2Parts    = recycle.NewBin(keptNodes, newPart[cache.Cache])
	osParts    = recycle.NewBin(keptMachines, newPart[osmodel.OS])
	flashParts = recycle.NewBin(keptMachines, newPart[memsys.FlashLite])
	numaParts  = recycle.NewBin(keptMachines, newPart[memsys.NUMA])
)

// keptNodes and keptMachines bound the bins: one 32-node mp-contend
// machine's tag arrays, and the nine 1p machines of study-quick's largest
// RunShared group, each with its own OS and memory system.
const (
	keptNodes    = 32
	keptMachines = 9
)

// keptLines is the largest tag array a bin keeps, the Table 1 L2's
// (2 MB of 128-byte lines): a run past it, or past keptNodes nodes,
// gives nothing back rather than have an idle process hold its arrays.
const keptLines = 1 << 14

// scribble, when set, runs on a machine just before it gives its parts
// back. Only tests set it, to dirty every part a later build must reset.
var scribble func(*Machine)

func newPart[T any]() *T { return new(T) }

// release gives the machine's parts back to their bins. The machine is
// done with them: collect has read their counters, and the Result holds
// none of them (BarrierReleases is the machine's own map, never a part).
func (m *Machine) release() {
	c := m.cfg
	if c.Procs > keptNodes || c.L1D.Size/c.L1D.LineSize > keptLines || c.L2.Size/c.L2.LineSize > keptLines {
		return
	}
	if scribble != nil {
		scribble(m)
	}
	for _, n := range m.nodes {
		l1Parts.Put(n.port.l1)
		l2Parts.Put(n.port.l2)
	}
	// A parked part names nothing of this run: no page table, no peers.
	m.os.Reset(osmodel.Config{}, nil, 0)
	osParts.Put(m.os)
	m.mem.SetPeers(nil)
	switch mem := m.mem.(type) {
	case *memsys.FlashLite:
		flashParts.Put(mem)
	case *memsys.NUMA:
		numaParts.Put(mem)
	}
}
