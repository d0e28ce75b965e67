// Package osmodel provides the two operating-system models of the
// study.
//
// Solo "does not model the operating system or any I/O behavior ...
// it emulates system calls" through backdoor routines and performs
// physical page mapping itself with no TLB: its translations are free
// and its allocator ignores page coloring (vm.SequentialAllocator).
//
// SimOS "models the system in enough detail to boot and run a full
// operating system": page mapping is managed by the simulated IRIX
// kernel (vm.ColorAllocator), every reference goes through a per-CPU
// TLB, TLB refills cost a configurable number of processor cycles (the
// parameter the paper's tuning loop corrected from 25/35 to the true
// 65), and system calls and cold page faults are charged kernel time.
package osmodel

import (
	"flashsim/internal/emitter"
	"flashsim/internal/recycle"
	"flashsim/internal/tlb"
	"flashsim/internal/vm"
)

// Kind selects the OS model.
type Kind uint8

const (
	// Solo: no OS, backdoor syscalls, no TLB, naive allocation.
	Solo Kind = iota
	// SimOS: simulated IRIX with TLB, coloring, and kernel costs.
	SimOS
)

// String names the kind.
func (k Kind) String() string {
	if k == Solo {
		return "solo"
	}
	return "simos"
}

// Config parameterizes the OS model.
type Config struct {
	Kind Kind
	// TLBEntries sizes each CPU's TLB (SimOS only; R10000: 64).
	TLBEntries int
	// TLBHandlerCycles is the charged refill cost in CPU cycles. The
	// untuned values are 25 (Mipsy) and 35 (MXS); hardware is 65.
	TLBHandlerCycles uint32
	// PageFaultCycles is the kernel cost of a cold page fault (SimOS).
	PageFaultCycles uint32
	// SyscallCycles is the kernel entry/exit cost of a system call
	// (SimOS; Solo backdoors are free).
	SyscallCycles uint32
}

// DefaultSimOS returns the SimOS configuration with an untuned handler
// cost (callers override per processor model).
func DefaultSimOS() Config {
	return Config{
		Kind:             SimOS,
		TLBEntries:       64,
		TLBHandlerCycles: 25,
		PageFaultCycles:  4000,
		SyscallCycles:    1500,
	}
}

// DefaultSolo returns the Solo configuration.
func DefaultSolo() Config { return Config{Kind: Solo} }

// Translation is the outcome of a virtual-to-physical translation.
type Translation struct {
	// PA is the physical address.
	PA uint64
	// PenaltyCycles is the CPU-cycle cost charged (TLB refill plus any
	// page-fault handling).
	PenaltyCycles uint32
	// TLBMiss reports a TLB refill ran.
	TLBMiss bool
}

// OS is one machine's operating-system model: a shared page table plus
// per-CPU TLBs.
type OS struct {
	cfg      Config
	pt       *vm.PageTable
	tlbs     []*tlb.TLB
	faults   uint64 // charged cold page faults (SimOS)
	syscalls uint64 // charged system calls (SimOS)
}

// Reset makes o the model of cfg over page table pt for a procs-CPU
// machine, in o's TLBs; a zero OS is ready for it. The TLBs past procs,
// and all of them under Solo, stay in o's array for a later Reset.
func (o *OS) Reset(cfg Config, pt *vm.PageTable, procs int) {
	entries := cfg.TLBEntries
	if entries <= 0 {
		entries = 64
	}
	if cfg.Kind != SimOS {
		procs = 0
	}
	tlbs := recycle.Renew(o.tlbs, procs, func(t *tlb.TLB) { t.Reset(tlb.Config{Entries: entries}) })
	*o = OS{cfg: cfg, pt: pt, tlbs: tlbs}
}

// Kind returns the model kind.
func (o *OS) Kind() Kind { return o.cfg.Kind }

// PageTable exposes the shared page table.
func (o *OS) PageTable() *vm.PageTable { return o.pt }

// TLB returns CPU i's TLB (nil under Solo).
func (o *OS) TLB(i int) *tlb.TLB {
	if len(o.tlbs) == 0 {
		return nil
	}
	return o.tlbs[i]
}

// Translate maps va for the CPU on node, charging TLB and fault costs
// according to the model, with one page-table lookup for a mapped page.
// An unmapped page faults in when fault is set; otherwise Translate
// changes nothing and reports false, and the caller defers the access
// to the phase that may mutate the shared page table.
func (o *OS) Translate(node int, va uint64, fault bool) (Translation, bool) {
	pp, mapped := o.pt.Lookup(va)
	if !mapped {
		if !fault {
			return Translation{}, false
		}
		pp, _ = o.pt.Translate(va, node)
	}
	tr := Translation{PA: pp.Addr(va)}
	if o.cfg.Kind == Solo {
		// Backdoor mapping: no TLB, no fault cost.
		return tr, true
	}
	if !o.tlbs[node].Access(vm.VPage(va)) {
		tr.TLBMiss = true
		tr.PenaltyCycles += o.cfg.TLBHandlerCycles
	}
	if !mapped {
		o.faults++
		tr.PenaltyCycles += o.cfg.PageFaultCycles
	}
	return tr, true
}

// SyscallCost returns the charged CPU cycles for a system call. The
// processor models call it exactly once per Syscall instruction, so it
// doubles as the syscall counter.
func (o *OS) SyscallCost() uint32 {
	if o.cfg.Kind == Solo {
		return 0
	}
	o.syscalls++
	return o.cfg.SyscallCycles
}

// TLBStats sums the per-CPU TLB counters (all zero under Solo).
func (o *OS) TLBStats() tlb.Stats {
	var c tlb.Stats
	for _, t := range o.tlbs {
		c.Add(t.Stats())
	}
	return c
}

// Counters counts operating-system-model activity.
type Counters struct {
	// PagesMapped is the page-table population at end of run.
	PagesMapped uint64
	// ColdFaults is the number of charged cold page faults (SimOS).
	ColdFaults uint64
	// Syscalls is the number of charged system calls (SimOS).
	Syscalls uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.PagesMapped += o.PagesMapped
	c.ColdFaults += o.ColdFaults
	c.Syscalls += o.Syscalls
}

// Counters returns the OS model's end-of-run counters.
func (o *OS) Counters() Counters {
	return Counters{
		PagesMapped: uint64(o.pt.Mapped()),
		ColdFaults:  o.faults,
		Syscalls:    o.syscalls,
	}
}

// Allocator builds the physical allocator appropriate for the model
// kind: sequential (Solo) or virtual coloring (SimOS/IRIX), for a
// machine whose secondary cache has the given number of page colors.
func Allocator(kind Kind, nodes int, colors uint32) vm.Allocator {
	if kind == Solo {
		return vm.NewSequentialAllocator(nodes, colors)
	}
	return vm.NewColorAllocator(nodes, colors)
}

// NewPageTable is a convenience constructing the page table with the
// model-appropriate allocator.
func NewPageTable(kind Kind, space *emitter.AddressSpace, nodes int, colors uint32) *vm.PageTable {
	return vm.NewPageTable(space, nodes, Allocator(kind, nodes, colors))
}
