// Package cpu defines the contract between processor models and the
// machine: the memory Port the machine exposes to a processor, the
// Outcome protocol by which a processor yields control back to the
// event loop, and CPU.Deliver, by which the machine completes an access
// the port deferred. Every core accepts a deferred access, since the
// machine's engine defers all shared-memory work. The two processor
// models of the study — Mipsy (internal/cpu/mipsy) and MXS
// (internal/cpu/mxs) — implement the CPU interface against this
// contract; the hardware reference is MXS at full fidelity.
package cpu

import (
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// MemInfo describes what happened on a data access. Port calls return
// it by value per instruction, so it stays a struct Go's SSA keeps in
// registers — four fields, 32 bytes (TestMemInfoStaysInRegisters): the
// conditions beyond L1Hit are one flag set read through accessors.
type MemInfo struct {
	// Done is when the data is available to the core (loads) or when
	// the store has been accepted (after any write-buffer stall).
	Done sim.Ticks
	// IssuedAt is when the transaction was issued to the memory system
	// (valid when WentToMemory). Processors yield to at least this time so
	// the next transaction's reservations are made in global time order.
	IssuedAt sim.Ticks
	// L1Hit reports that the primary cache satisfied the access.
	L1Hit bool
	Flags MemFlags
}

// MemFlags is the set of conditions a MemInfo reports beyond L1Hit.
type MemFlags uint8

const (
	// FlagL2Hit: the secondary cache satisfied the access.
	FlagL2Hit MemFlags = 1 << iota
	// FlagTLBMiss: a TLB refill ran (its cost is inside Done).
	FlagTLBMiss
	// FlagWentToMemory: the access left the chip (an L2 miss, or a
	// dirty line's writeback). The machine's port answers inline with
	// it only for a store the write buffer took and a CACHE op on a
	// dirty line. Mipsy and replay yield after such a store, MXS after
	// any access that carries it, so that shared-resource reservations
	// stay in global time order.
	FlagWentToMemory
	// FlagDirtyCacheOp: a CACHE instruction hit a dirty line (the
	// trigger of the historical MXS stall bug).
	FlagDirtyCacheOp
	// FlagPending: the access needs the shared memory system and has
	// been deferred to the engine's next barrier phase; nothing else in
	// the MemInfo is meaningful yet, and the processor suspends the
	// instruction (see Blocked and CPU.Deliver).
	FlagPending
)

// L2Hit, TLBMiss, WentToMemory, DirtyCacheOp and Pending report their flag.
func (mi MemInfo) L2Hit() bool        { return mi.Flags&FlagL2Hit != 0 }
func (mi MemInfo) TLBMiss() bool      { return mi.Flags&FlagTLBMiss != 0 }
func (mi MemInfo) WentToMemory() bool { return mi.Flags&FlagWentToMemory != 0 }
func (mi MemInfo) DirtyCacheOp() bool { return mi.Flags&FlagDirtyCacheOp != 0 }
func (mi MemInfo) Pending() bool      { return mi.Flags&FlagPending != 0 }

// Port is the machine-side memory interface a processor model drives.
// Implementations encapsulate the TLB, the cache hierarchy, the write
// buffer, the MSHRs, and the memory-system simulator behind them.
type Port interface {
	// Load performs a data read at time t.
	Load(t sim.Ticks, addr uint64, size uint32) MemInfo
	// Store performs a data write at time t. Done reflects when the
	// processor may proceed (write-buffer semantics), not when the
	// store is globally visible.
	Store(t sim.Ticks, addr uint64, size uint32) MemInfo
	// Prefetch issues a non-binding prefetch; the processor never
	// waits on it.
	Prefetch(t sim.Ticks, addr uint64)
	// CacheOp performs a MIPS CACHE instruction.
	CacheOp(t sim.Ticks, addr uint64, aux uint32) MemInfo
	// SyscallCost returns the charged cost, in processor cycles, of a
	// system call under the machine's OS model.
	SyscallCost(aux uint32) uint32
}

// Stream is a per-thread instruction source a processor model
// consumes. It is the seam between instruction delivery and timing:
// the execution-driven cores read a live emitter reader through it.
// Trace replay does not: its core reads collapsed actions directly.
type Stream interface {
	// Next returns the next instruction, or ok=false when the stream
	// is exhausted.
	Next() (isa.Instr, bool)
}

// BatchStream is a Stream that also lends its instructions out in place.
type BatchStream interface {
	Stream
	// NextBatch returns the unread rest of the stream's current batch,
	// nil when exhausted; valid until the next call to Next or NextBatch.
	NextBatch() []isa.Instr
}

// Cursor is how a core reads its Stream: Next yields a pointer to the
// next instruction where it already lies — a slot of a BatchStream's own
// batch, the stream being called once per batch. Any other Stream (the
// frozen benchmark's slice stream is the one left) is adapted one
// instruction at a time through the cursor's own slot, never reading
// ahead and never remembering an ok=false. The pointer is valid until
// the next call to Next, which may hand the batch back to its producer.
// The cursor lives by value in its core and must not be copied once
// Next has been called.
type Cursor struct {
	batch []isa.Instr // the current batch, read up to pos
	pos   int
	src   Stream
	bat   BatchStream // src, when it lends batches
	one   [1]isa.Instr
}

// NewCursor returns a cursor at the start of src.
func NewCursor(src Stream) Cursor {
	bat, _ := src.(BatchStream)
	return Cursor{src: src, bat: bat}
}

// Next returns the next instruction in place, or nil when the stream
// has (for now) no more. refill hands back the first instruction itself
// so that Next fits Go's inlining budget: a core pays a call per batch.
func (c *Cursor) Next() (in *isa.Instr) {
	if c.pos == len(c.batch) {
		return c.refill()
	}
	in = &c.batch[c.pos]
	c.pos++
	return
}

// refill takes the next batch (adapting: the next instruction). When
// the stream has none the cursor stays spent, so the next call asks again.
func (c *Cursor) refill() *isa.Instr {
	if c.bat != nil {
		c.batch, c.pos = c.bat.NextBatch(), 0
		if len(c.batch) == 0 {
			return nil
		}
	} else {
		in, ok := c.src.Next()
		if !ok {
			return nil
		}
		c.one[0] = in
		c.batch = c.one[:]
	}
	c.pos = 1
	return &c.batch[0]
}

// OutcomeKind says why a processor yielded.
type OutcomeKind uint8

const (
	// Yield: the processor exhausted its quantum or issued a memory
	// transaction; resume by calling Run at Outcome.Time.
	Yield OutcomeKind = iota
	// SyncOp: the processor reached a LOCK/UNLOCK/BARRIER instruction
	// (Outcome.Op, with its lock or barrier id in Outcome.Aux) at
	// Outcome.Time; the machine decides when it resumes.
	SyncOp
	// Finished: the instruction stream is exhausted; Outcome.Time is
	// the completion time.
	Finished
	// Blocked: the processor issued a memory access the port deferred
	// (MemInfo.Pending) and is suspended mid-instruction. The machine
	// executes the deferred operation at its next barrier phase and
	// resumes the processor at the time Deliver returns.
	Blocked
)

// Outcome is what Run returns to the machine's event loop.
type Outcome struct {
	Kind OutcomeKind
	Time sim.Ticks
	Op   isa.Op // valid for SyncOp
	Aux  uint32 // valid for SyncOp
}

// CPU is a processor model bound to one instruction stream and one
// memory port.
type CPU interface {
	// Run executes instructions starting at time t until the model
	// yields. The machine guarantees t is no earlier than the last
	// outcome's Time.
	Run(t sim.Ticks) Outcome
	// Deliver is the suspension half of the deferred-access protocol:
	// it hands a core that returned Blocked the completed MemInfo of
	// its deferred access; the core finishes the suspended instruction
	// and returns the time at which the machine should call Run again.
	// It is each core's one completion of a port access: Run finishes
	// an access the port answers at once through the same code.
	Deliver(mi MemInfo) sim.Ticks
	// Instructions returns the instructions executed so far.
	Instructions() uint64
}
