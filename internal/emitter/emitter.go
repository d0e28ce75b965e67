// Package emitter turns ordinary Go code into per-thread instruction
// streams of the synthetic ISA.
//
// A workload (see internal/apps) is a real algorithm whose inner loops
// are written against the Thread API: t.Load/t.Store/t.FPAdd/... Each
// call both performs no actual data movement (the algorithm keeps its
// data in normal Go variables) and appends one isa.Instr, with true data
// dependences tracked through Val handles, to a batched stream that the
// processor models consume. This reproduces the paper's methodology of
// running the *same binary* on every platform: the identical instruction
// stream is replayed by Mipsy, MXS, and the hardware reference model.
//
// Emission runs on demand, one thread at a time. Each thread's body has
// a goroutine of its own, but it runs only while a reader that needs
// its next batch has handed it the turn, and it hands the turn back
// after each flushed batch or at a barrier or lock it cannot pass yet.
// A barrier is a count and a lock an owner, which only the running body
// touches, so a parallel algorithm computes consistent data while its
// timing is decided entirely by the simulated machine. A reader whose
// thread waits at one runs the others, lowest ID first, until it can go
// on; when none can, the workload has deadlocked (ErrDeadlocked).
package emitter

import (
	"errors"
	"fmt"
	"sync"

	"flashsim/internal/isa"
	"flashsim/internal/recycle"
)

// BatchSize is the number of instructions per send: it amortizes
// the hand-off, leaving the slab write and read. One IntOps instruction
// through emit and Next (BenchmarkEmitterThroughput -cpu 1) is 6.0-7.1 ns;
// it was 12.1-14.5 while emit took an isa.Instr by value and appended it.
const BatchSize = 2048

// poolSize is the most instruction-batch slabs a thread borrows while
// its reader sets keep up. Thread fills one, appends it to its lane (the
// sent slabs some set has not given back, oldest first), and takes the
// lane's oldest back for its next batch once every set has released it,
// as a Reader does when it moves on. A thread one set reads reuses one
// slab, or a few around a barrier; of several sets, the fastest runs
// eight batches ahead of the slowest before it waits. Past poolSize a
// thread borrows only to let another pass a barrier or lock, or when
// every other set waits. A slab comes from the process (slabPool) only
// when none has come back; Streams.Abort gives them back, and the next
// run fills the same arrays instead of making and zeroing its own.
const poolSize = 9

// maxRetained bounds what slabPool keeps while no run holds it: 32
// threads x poolSize = 288 slabs = 18 MB. A 128-node emission read by
// several sets can hold 1 152; the rest are dropped on return rather
// than held by an idle process.
const maxRetained = 32 * poolSize

// slabPool is the process-wide free list of slabs (DESIGN.md §7).
// Slabs come back and go out dirty: emit writes every field of every
// slot it hands on.
var slabPool = recycle.NewBin(maxRetained, func() []isa.Instr { return make([]isa.Instr, 0, BatchSize) })

// maxDepDistance caps encoded dependence distances; anything further
// back than this is out of every model's window and irrelevant.
const maxDepDistance = 1 << 20

// Tap observes each flushed batch of one thread's instruction stream.
// It is invoked on the emitting goroutine, immediately before the batch
// is handed to the consumer, so the batch slice is still owned by the
// producer: the tap must finish with it before returning and must not
// retain it (the slab goes back into the recycling pool). Only one
// thread of an emission runs at a time, so its taps run one at a time.
type Tap func(thread int, batch []isa.Instr)

// Val is a handle to the value produced by a previously emitted
// instruction, used to express data dependences.
type Val struct {
	idx uint64 // 1 + absolute index of the producing instruction; 0 = none
}

// None is the zero Val: no dependence.
var None Val

// Thread is the per-thread emission context handed to workload code.
type Thread struct {
	// ID is the thread index, 0..NThreads-1.
	ID int
	// N is the total number of threads in the program.
	N int

	s     *Streams
	buf   []isa.Instr
	count uint64 // instructions emitted so far
	rng   uint64 // per-thread deterministic PRNG state
	tap   Tap

	// The producer and its lane, under s.mu: what the readers of this
	// thread's stream (one per reader set) see of it.
	turn    chan struct{} // passes the turn between the producer and who resumes it
	waits   isa.Op        // the Barrier or Lock the parked producer waits at; Nop: a slab
	at      uint32        // that barrier's or lock's id
	until   uint64        // the count of arrivals at that barrier that lets it pass
	closed  bool          // the body has returned or unwound
	readers []*Reader
	log     [][]isa.Instr // sent slabs some reader set has not released, oldest first
	base    uint64        // send number of log[0]
}

func (t *Thread) dist(v Val) uint32 {
	if v.idx == 0 {
		return 0
	}
	d := t.count + 1 - v.idx // distance from the instruction being emitted now
	if d >= maxDepDistance {
		return 0
	}
	return uint32(d)
}

// emit writes one instruction straight into the slab being filled. It
// takes the fields as scalars because an isa.Instr passed by value
// bounces off the stack (DESIGN.md §7), and writes all six every time
// because the recycled slot still holds what was emitted into it last.
func (t *Thread) emit(op isa.Op, addr uint64, size, dep1, dep2, aux uint32) Val {
	n := len(t.buf)
	t.buf = t.buf[:n+1] // every slab has cap BatchSize and is flushed when full
	in := &t.buf[n]
	in.Op, in.Addr, in.Size, in.Dep1, in.Dep2, in.Aux = op, addr, size, dep1, dep2, aux
	t.count++
	if n+1 == BatchSize {
		t.flush()
	}
	return Val{idx: t.count}
}

// send appends a non-empty batch to the lane, where every reader set
// finds it, and reports whether it did; the slab is then the lane's and
// t.buf lets go of it (an abort must not find it on both sides), so only
// flush, which replaces it, and the end of the stream call this.
func (t *Thread) send() bool {
	if len(t.buf) == 0 {
		return false
	}
	if t.tap != nil {
		// Mirror the batch before it leaves the producer: the tap reads
		// from the slab we still own, so the pool discipline below is
		// untouched and the consumer never sees the copy cost.
		t.tap(t.ID, t.buf)
	}
	t.log = append(t.log, t.buf)
	t.buf = nil
	t.s.wake()
	return true
}

// flush hands the batch being filled to the readers, gives the turn
// back, and takes an empty slab for the next batch once it has it again.
func (t *Thread) flush() {
	if t.send() {
		t.park(isa.Nop)
		t.next()
	}
}

// next takes the slab for the next batch: the lane's oldest once every
// reader set has released it, else one more of the process's, which
// whoever resumed the thread has found it may borrow (Thread.ready).
func (t *Thread) next() {
	if len(t.log) > 0 && t.released() {
		b := t.log[0]
		n := copy(t.log, t.log[1:])
		t.log[n] = nil
		t.log = t.log[:n]
		t.base++
		t.buf = b[:0]
		return
	}
	t.buf = slabPool.Get()
}

// released reports whether every reader set still reading has given
// back the lane's oldest slab. Readers release in send order, so each
// one's count of released batches says which slabs it is done with.
func (t *Thread) released() bool {
	for k, r := range t.readers {
		if r.reuses <= t.base && !t.s.detached[k] {
			return false
		}
	}
	return true
}

// sent is how many batches t has sent.
func (t *Thread) sent() uint64 { return t.base + uint64(len(t.log)) }

// park gives the turn back until whoever resumes t has seen that it can
// have what it waits for.
func (t *Thread) park(w isa.Op) {
	t.waits = w
	t.turn <- struct{}{}
	t.await()
}

// await takes the turn; an aborted stream unwinds the producer from here.
func (t *Thread) await() {
	<-t.turn
	if t.s.aborted {
		panic(abortPanic{})
	}
}

// resume runs t's producer until it gives the turn back: one body of an
// emission runs at a time, for whoever holds s.mu.
func (t *Thread) resume() {
	t.turn <- struct{}{}
	<-t.turn
}

// ready reports whether resuming t gets it past what it waits for, if
// need be by borrowing a slab past poolSize (borrow).
func (t *Thread) ready(borrow bool) bool {
	switch {
	case t.closed:
		return false
	case t.waits == isa.Barrier:
		return t.s.arrived[t.at] >= t.until
	case t.waits == isa.Lock:
		_, held := t.s.locks[t.at]
		return !held
	}
	// t holds the slabs in its lane, and the one it fills unless it sent it.
	return borrow || t.buf != nil || len(t.log) < poolSize || t.released()
}

// exit ends t's producer: it records a panic other than an abort and
// gives the turn back for good. The locks a panicking body held stay
// held; a thread that wants one then deadlocks, which Err does not
// report over the panic.
func (t *Thread) exit() {
	if r := recover(); r != nil {
		if _, isAbort := r.(abortPanic); !isAbort {
			t.s.fail(fmt.Errorf("emitter thread %d %w: %v", t.ID, ErrPanicked, r))
		}
	}
	t.closed = true
	t.turn <- struct{}{}
}

// abortPanic unwinds a producer when the consumer has stopped.
type abortPanic struct{}

// Load emits a load of size bytes at addr, depending on up to two prior
// values (e.g. the value that the address was computed from). It returns
// the loaded value's handle.
func (t *Thread) Load(addr uint64, size uint32, d1, d2 Val) Val {
	return t.emit(isa.Load, addr, size, t.dist(d1), t.dist(d2), 0)
}

// Store emits a store of size bytes at addr whose data depends on d1 and
// whose address depends on d2.
func (t *Thread) Store(addr uint64, size uint32, d1, d2 Val) {
	t.emit(isa.Store, addr, size, t.dist(d1), t.dist(d2), 0)
}

// Prefetch emits a non-binding prefetch of the line containing addr.
func (t *Thread) Prefetch(addr uint64) {
	t.emit(isa.Prefetch, addr, 4, 0, 0, 0)
}

// CacheOp emits a MIPS CACHE instruction (sub-operation aux) on the line
// containing addr.
func (t *Thread) CacheOp(addr uint64, aux uint32) {
	t.emit(isa.CacheOp, addr, 4, 0, 0, aux)
}

// Op emits a non-memory instruction of kind op with dependences d1, d2.
func (t *Thread) Op(op isa.Op, d1, d2 Val) Val {
	return t.emit(op, 0, 0, t.dist(d1), t.dist(d2), 0)
}

// IntALU emits a 1-cycle integer op.
func (t *Thread) IntALU(d1, d2 Val) Val { return t.Op(isa.IntALU, d1, d2) }

// IntMul emits an integer multiply.
func (t *Thread) IntMul(d1, d2 Val) Val { return t.Op(isa.IntMul, d1, d2) }

// IntDiv emits an integer divide.
func (t *Thread) IntDiv(d1, d2 Val) Val { return t.Op(isa.IntDiv, d1, d2) }

// FPAdd emits a floating-point add.
func (t *Thread) FPAdd(d1, d2 Val) Val { return t.Op(isa.FPAdd, d1, d2) }

// FPMul emits a floating-point multiply.
func (t *Thread) FPMul(d1, d2 Val) Val { return t.Op(isa.FPMul, d1, d2) }

// FPDiv emits a floating-point divide.
func (t *Thread) FPDiv(d1, d2 Val) Val { return t.Op(isa.FPDiv, d1, d2) }

// Branch emits a conditional branch.
func (t *Thread) Branch(d1 Val) { t.Op(isa.Branch, d1, None) }

// IntOps emits n untracked 1-cycle integer ops (address arithmetic, loop
// overhead) in bulk.
func (t *Thread) IntOps(n int) {
	for i := 0; i < n; i++ {
		t.emit(isa.IntALU, 0, 0, 0, 0, 0)
	}
}

// Syscall emits a system call with number aux.
func (t *Thread) Syscall(aux uint32) {
	t.emit(isa.Syscall, 0, 0, 0, 0, aux)
}

// Barrier emits a BARRIER instruction and then waits until all N
// threads have arrived, so that program data stays phase-consistent
// across threads.
func (t *Thread) Barrier(id uint32) {
	t.emit(isa.Barrier, 0, 0, 0, 0, id)
	t.flush()
	n, all := t.s.arrived[id]+1, uint64(t.N)
	t.s.arrived[id] = n
	if n%all != 0 {
		t.at, t.until = id, n+all-n%all
		t.park(isa.Barrier)
	}
}

// Lock emits a LOCK instruction and then takes the lock, waiting while
// another thread holds it.
func (t *Thread) Lock(id uint32) {
	t.emit(isa.Lock, 0, 0, 0, 0, id)
	t.flush()
	if _, held := t.s.locks[id]; held {
		t.at = id
		t.park(isa.Lock)
	}
	t.s.locks[id] = t.ID
}

// Unlock releases the lock, if t holds it, and emits an UNLOCK
// instruction.
func (t *Thread) Unlock(id uint32) {
	if owner, held := t.s.locks[id]; held && owner == t.ID {
		delete(t.s.locks, id)
	}
	t.emit(isa.Unlock, 0, 0, 0, 0, id)
	t.flush()
}

// Rand returns a deterministic per-thread pseudo-random uint64
// (xorshift64*), for workloads that need reproducible random input.
func (t *Thread) Rand() uint64 {
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Reader consumes one thread's instruction stream for one reader set.
// Its counters change on the set's consumer goroutine, batches and
// reuses under the stream's mutex: they are the reader's position in the
// lane, which has taken batches and given back reuses of them, all but
// the one it is on.
type Reader struct {
	t       *Thread
	set     int
	buf     []isa.Instr
	pos     int
	done    bool
	read    uint64
	batches uint64
	reuses  uint64 // consumed slabs given back to the lane
}

// refill gives back the spent batch and takes the next, pulling it from
// the producer while the lane has none; false at end of stream.
func (r *Reader) refill() bool {
	if r.done {
		return false
	}
	t, s := r.t, r.t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.buf != nil {
		// Give the spent batch back before pulling the next one, so the
		// producer can always reuse what this set has finished.
		r.buf = nil
		if r.reuses++; r.reuses == t.base+1 {
			s.wake() // the lane's oldest: a set waiting for it may go on
		}
	}
	if r.batches >= t.sent() && !s.pull(t, r.set) {
		r.done = true
		return false
	}
	r.buf = t.log[r.batches-t.base]
	r.pos = 0
	r.batches++
	return true
}

// Next returns the next instruction, or ok=false at end of stream.
func (r *Reader) Next() (isa.Instr, bool) {
	if r.pos >= len(r.buf) && !r.refill() {
		return isa.Instr{}, false
	}
	r.pos++
	r.read++
	return r.buf[r.pos-1], true
}

// NextBatch returns the unread rest of the current batch (of the next,
// when that one is spent) and counts it read; nil at end of stream. The
// slice is the slab itself, lent until the next call to Next or NextBatch.
func (r *Reader) NextBatch() []isa.Instr {
	if r.pos >= len(r.buf) && !r.refill() {
		return nil
	}
	rest := r.buf[r.pos:]
	r.pos = len(r.buf)
	r.read += uint64(len(rest))
	return rest
}

// Batches returns how many instruction batches have been consumed.
func (r *Reader) Batches() uint64 { return r.batches }

// Streams is a running program: one Reader per thread for each reader
// set, plus abort plumbing. Every set sees every batch of every thread;
// a slab goes back to its thread once the last set has released it.
type Streams struct {
	// Readers is reader set 0, one Reader per thread: all of a stream
	// started for one reader.
	Readers []*Reader
	threads []Thread
	wg      sync.WaitGroup

	// mu is the emission's one mutex: a reader holds it while it runs a
	// producer, which is what makes that producer the one body running,
	// and it guards the lanes, the reader positions, the sets' state and
	// everything below.
	mu       sync.Mutex
	cond     sync.Cond   // on mu: a set waits here for another to release a slab
	waiting  int         // sets waiting on cond since the last wake
	sets     [][]*Reader // by set, one Reader per thread
	detached []bool      // by set: its consumer reads no more
	live     int         // reader sets not yet detached
	aborted  bool
	err      error
	arrived  map[uint32]uint64 // arrivals at each barrier: every N-th lets N pass
	locks    map[uint32]int    // the ID of each held lock's owner
}

// Set returns reader set k, one Reader per thread.
func (s *Streams) Set(k int) []*Reader { return s.sets[k] }

// pull runs producers until t sends its next batch for a reader of set
// k, and reports whether it did. It does not once t has finished, the
// stream has been aborted or k detached, nor when every thread waits or
// has finished: then the workload has deadlocked, and Err says so.
func (s *Streams) pull(t *Thread, k int) bool {
	for sent := t.sent(); t.sent() == sent; {
		switch {
		case t.closed || s.aborted || s.detached[k]:
			return false
		case t.ready(false) || t.waits == isa.Nop && s.waiting == s.live-1:
			// t can go on, or every other set waits too and it borrows
			// past poolSize.
			t.resume()
		case t.waits == isa.Nop:
			// Another set has yet to release the lane's oldest slab.
			s.waiting++
			s.cond.Wait()
		default:
			// t waits at a barrier or lock: run the others, lowest ID
			// first, until it can pass.
			u := s.runnable(t)
			if u == nil {
				s.fail(fmt.Errorf("emitter thread %d %w at %v %d: every thread waits or has finished", t.ID, ErrDeadlocked, t.waits, t.at))
				return false
			}
			u.resume()
		}
	}
	return true
}

// runnable is the lowest-numbered thread but t that can go on, borrowing
// a slab if it must; nil if none can.
func (s *Streams) runnable(t *Thread) *Thread {
	for i := range s.threads {
		if u := &s.threads[i]; u != t && u.ready(true) {
			return u
		}
	}
	return nil
}

// wake ends the wait of every set waiting for a slab; each looks again.
func (s *Streams) wake() {
	if s.waiting > 0 {
		s.waiting = 0
		s.cond.Broadcast()
	}
}

// fail records the stream's first error.
func (s *Streams) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Detach gives back reader set k: its consumer has finished with the
// stream or failed, and reads from it no more, not even the batches it
// is on. The producers and the other sets go on without it; the last set
// to detach aborts the stream. Safe to call more than once.
func (s *Streams) Detach(k int) {
	s.mu.Lock()
	if !s.detached[k] {
		s.detached[k] = true
		s.live--
		for _, r := range s.sets[k] {
			r.buf, r.done = nil, true
		}
		s.wake()
	}
	last := s.live == 0
	s.mu.Unlock()
	if last {
		s.Abort()
	}
}

// Abort releases the stream, finished or abandoned: it unwinds the
// producers from where they are parked, waits for their goroutines and
// gives the slabs back to the process, all but the batch a Reader of a
// set still attached is on. That one stays the consumer's, which may go
// on reading it after Abort (a drained Reader is on none). Safe to call
// multiple times.
func (s *Streams) Abort() {
	s.mu.Lock()
	if !s.aborted {
		s.aborted = true
		s.wake()
		for i := range s.threads {
			if t := &s.threads[i]; !t.closed {
				t.resume()
			}
		}
		s.release()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// release gives every slab back from the one place that holds it now the
// producers have exited: the one an aborted producer was filling and
// those in the lanes, but for any an attached reader is on. The caller
// holds the mutex, so a consumer still running gives its batch back
// either before the drain or past it, when the lane is empty and ends
// its stream.
func (s *Streams) release() {
	for i := range s.threads {
		t := &s.threads[i]
		if t.buf != nil {
			slabPool.Put(t.buf[:0])
			t.buf = nil
		}
		for j, b := range t.log {
			if !t.onIt(t.base + uint64(j)) {
				slabPool.Put(b[:0])
			}
			t.log[j] = nil
		}
		t.log = t.log[:0]
	}
}

// onIt reports whether an attached reader is on the lane's batch seq.
func (t *Thread) onIt(seq uint64) bool {
	for k, r := range t.readers {
		if !t.s.detached[k] && r.batches > seq && r.reuses <= seq {
			return true
		}
	}
	return false
}

// ErrPanicked is what Streams.Err wraps when a workload thread panicked.
var ErrPanicked = errors.New("panicked")

// ErrDeadlocked is what Streams.Err wraps when a reader needed a batch
// of a thread that waits at a barrier or lock no other thread can
// release: every thread waited or had finished.
var ErrDeadlocked = errors.New("deadlocked")

// Err returns the first panic (other than abort) raised by a workload
// thread, wrapping ErrPanicked, or else the deadlock that ended the
// streams, wrapping ErrDeadlocked; nil if neither happened.
func (s *Streams) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Wait blocks until every producer has finished, as each has once read
// to the end of a stream that did not deadlock. It gives no slab back:
// that is Abort's, after Wait as much as instead of it.
func (s *Streams) Wait() { s.wg.Wait() }

// Stats counts instruction-stream activity.
type Stats struct {
	// Batches is the number of instruction batches consumed by the
	// processor models.
	Batches uint64
	// Instructions is the number of instructions read from the streams.
	Instructions uint64
	// SlabReuses is the number of consumed batch buffers returned to
	// the producer's recycling pool instead of being garbage.
	SlabReuses uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Batches += o.Batches
	s.Instructions += o.Instructions
	s.SlabReuses += o.SlabReuses
}

// Counters sums the consumer-side stream counters across the Readers of
// set k. Call it from that set's consumer goroutine after the run drains
// (the Reader counters are its own).
func (s *Streams) Counters(k int) Stats {
	var c Stats
	for _, r := range s.sets[k] {
		c.Batches += r.batches
		c.Instructions += r.read
		c.SlabReuses += r.reuses
	}
	return c
}

// Start starts a producer goroutine per thread, each parked until a
// reader needs its first batch, to run body, and returns their streams,
// each read by readers reader sets. body receives the per-thread
// emission context. The streams hold slabs borrowed from the process
// until Abort, which every caller owes them (or Detach of every set), a
// drained stream included; one that is merely dropped takes its slabs
// to the collector and the next run makes new ones. A non-nil tap
// mirrors every flushed batch.
func Start(nthreads, readers int, body func(t *Thread), tap Tap) *Streams {
	if nthreads <= 0 {
		panic("emitter: nthreads must be positive")
	}
	if readers <= 0 {
		panic("emitter: a stream needs a reader")
	}
	s := &Streams{
		threads:  make([]Thread, nthreads),
		sets:     make([][]*Reader, readers),
		detached: make([]bool, readers),
		live:     readers,
		arrived:  make(map[uint32]uint64),
		locks:    make(map[uint32]int),
	}
	s.cond.L = &s.mu
	rs := make([]Reader, readers*nthreads)
	views := make([]*Reader, 2*readers*nthreads) // by set, then by lane
	logs := make([][]isa.Instr, nthreads*poolSize)
	for k := range s.sets {
		s.sets[k] = views[k*nthreads : (k+1)*nthreads : (k+1)*nthreads]
	}
	byLane := views[readers*nthreads:]
	for i := range s.threads {
		t := &s.threads[i]
		*t = Thread{
			ID:      i,
			N:       nthreads,
			s:       s,
			buf:     slabPool.Get(),
			rng:     0x9E3779B97F4A7C15 ^ (uint64(i+1) * 0xBF58476D1CE4E5B9),
			tap:     tap,
			turn:    make(chan struct{}),
			readers: byLane[i*readers : (i+1)*readers : (i+1)*readers],
			log:     logs[i*poolSize : i*poolSize : (i+1)*poolSize],
		}
		for k := range s.sets {
			r := &rs[k*nthreads+i]
			r.t, r.set = t, k
			s.sets[k][i], t.readers[k] = r, r
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer t.exit()
			t.await()
			body(t)
			t.send() // the last batch needs no successor slab
		}()
	}
	s.Readers = s.sets[0]
	return s
}
