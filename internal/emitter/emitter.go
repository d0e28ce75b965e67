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
// Threads run as goroutines and synchronize with *real* barriers and
// mutexes that mirror the semantic BARRIER/LOCK instructions they emit,
// so a parallel algorithm computes consistent data while its timing is
// decided entirely by the simulated machine. The emitted sync
// instruction is always flushed to the readers before the goroutine
// blocks, which makes the scheme deadlock-free: by the time every
// simulated processor has arrived at a barrier, every emitter goroutine
// has already arrived at the real one.
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

// poolSize is the most instruction-batch slabs a thread holds while its
// readers keep up. The slabs circulate: Thread fills one, appends it to
// its lane (the sent slabs some reader has not given back, oldest
// first), and takes the lane's oldest back for its next batch once every
// reader has released it, which a Reader does as it moves on to its next
// batch. Eight can wait unread while a reader is on the ninth, so a
// billion-instruction run reuses this fixed set of slabs instead of
// taking one per send. A slab is borrowed from the process (slabPool)
// only when the producer needs one and none has come back yet, so a
// thread that emits three batches holds three; Streams.Abort gives them
// back, and the next run fills the same arrays instead of making and
// zeroing its own.
const poolSize = 9

// maxRetained bounds what slabPool keeps while no run holds it: 32
// threads x poolSize = 288 slabs = 18 MB, all that an mp-contend-sized
// run has in flight. A 128-node run has 1 152; it makes the rest, and
// they are dropped on return rather than held by an idle process.
const maxRetained = 32 * poolSize

// slabPool is the process-wide free list of slabs (DESIGN.md §7).
// Slabs come back and go out dirty: emit writes every field of every
// slot it hands on.
var slabPool = recycle.NewBin(maxRetained, func() []isa.Instr { return make([]isa.Instr, 0, BatchSize) })

// putSlab takes back a slab (nil: none) that no stream references any
// more; past maxRetained it is left to the collector.
func putSlab(b []isa.Instr) {
	if b != nil {
		slabPool.Put(b[:0])
	}
}

// maxDepDistance caps encoded dependence distances; anything further
// back than this is out of every model's window and irrelevant.
const maxDepDistance = 1 << 20

// Tap observes each flushed batch of one thread's instruction stream.
// It is invoked on the emitting goroutine, immediately before the batch
// is handed to the consumer, so the batch slice is still owned by the
// producer: the tap must finish with it before returning and must not
// retain it (the slab goes back into the recycling pool). Taps for
// different threads run concurrently; a tap implementation that shares
// state across threads must synchronize it itself.
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
	coord *Coordinator
	abort <-chan struct{}
	buf   []isa.Instr
	slabs int    // batch buffers borrowed so far: poolSize unless a cycle grew it
	count uint64 // instructions emitted so far
	rng   uint64 // per-thread deterministic PRNG state
	held  map[uint32]*sync.Mutex
	tap   Tap

	// The lane, under s.mu: what the readers of this thread's stream
	// (one per reader set) see of it.
	readers []*Reader
	log     [][]isa.Instr // sent slabs some reader has not released, oldest first
	base    uint64        // send number of log[0]
	closed  bool          // the producer goroutine has exited
	waiting bool          // the producer waits for its oldest slab
	wake    chan struct{} // a token ends that wait
	mark    uint64        // the s.epoch of the last cycle search to visit it
}

// releaseHeld unlocks any real mutexes held when the goroutine unwinds
// on abort, so sibling emitters blocked in Lock can also unwind.
func (t *Thread) releaseHeld() {
	for id, m := range t.held {
		m.Unlock()
		delete(t.held, id)
	}
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
	s := t.s
	s.mu.Lock()
	if s.aborted {
		s.mu.Unlock()
		panic(abortPanic{})
	}
	t.log = append(t.log, t.buf)
	t.buf = nil
	t.unlockWaking()
	return true
}

// unlockWaking ends the wait of every reader blocked on t's lane and
// releases the mutex, which the caller holds: it takes their flags under
// the mutex and hands the tokens after it, so a woken reader does not
// find the mutex still held. Only t's producer goroutine calls it, so
// the token field is its own.
func (t *Thread) unlockWaking() {
	for _, r := range t.readers {
		r.token, r.waiting = r.waiting, false
	}
	t.s.mu.Unlock()
	for _, r := range t.readers {
		if r.token {
			r.token = false
			signal(r.wake)
		}
	}
}

// signal hands a waiter its one token (none on a nil channel); the flag
// it waited under, which the signaller clears, keeps a second from
// being sent.
func signal(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// flush hands the batch being filled to the readers and takes an empty
// slab for the next one.
func (t *Thread) flush() {
	if t.send() {
		t.next()
	}
}

// next takes the slab for the next batch: the lane's oldest once every
// reader has released it, else one more of the process's while the
// thread holds fewer than poolSize, else it waits for the slowest reader.
// A Reader releases each batch before waiting for its next, so that wait
// cannot deadlock against one reader set. Against several it can: set A
// behind on this thread may wait on thread u, which waits for set B,
// which waits on this one. Such a cycle is the one case in which the
// thread borrows past poolSize (TestSharedEmissionSurvivesSkew).
func (t *Thread) next() {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.aborted {
		if len(t.log) > 0 && t.released() {
			b := t.log[0]
			n := copy(t.log, t.log[1:])
			t.log[n] = nil
			t.log = t.log[:n]
			t.base++
			t.buf = b[:0]
			return
		}
		if t.slabs < poolSize || s.cycle(t) {
			t.slabs++
			t.buf = slabPool.Get()
			return
		}
		t.waiting = true
		s.mu.Unlock()
		select {
		case <-t.wake:
		case <-t.abort:
		}
		s.mu.Lock()
		t.waiting = false
	}
	panic(abortPanic{})
}

// released reports whether every reader set still reading has given
// back the lane's oldest slab. Readers release in send order, so each
// one's count of released batches says which slabs it is done with.
func (t *Thread) released() bool {
	for _, r := range t.readers {
		if r.reuses <= t.base && !r.m.detached {
			return false
		}
	}
	return true
}

// abortPanic unwinds an emitter goroutine when the consumer has stopped.
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

// Barrier emits a BARRIER instruction and then joins the real barrier so
// that program data stays phase-consistent across threads.
func (t *Thread) Barrier(id uint32) {
	t.emit(isa.Barrier, 0, 0, 0, 0, id)
	t.flush()
	t.coord.barrier(id, t.N).await(t.abort)
}

// Lock emits a LOCK instruction and acquires the mirroring real mutex.
func (t *Thread) Lock(id uint32) {
	t.emit(isa.Lock, 0, 0, 0, 0, id)
	t.flush()
	m := t.coord.lock(id)
	m.Lock()
	if t.held == nil {
		t.held = make(map[uint32]*sync.Mutex)
	}
	t.held[id] = m
}

// Unlock releases the real mutex and emits an UNLOCK instruction.
func (t *Thread) Unlock(id uint32) {
	if m, ok := t.held[id]; ok {
		m.Unlock()
		delete(t.held, id)
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

// Coordinator owns the real synchronization objects shared by the
// emitter goroutines of one program run.
type Coordinator struct {
	mu       sync.Mutex
	aborted  bool
	barriers map[uint32]*cyclicBarrier
	locks    map[uint32]*sync.Mutex
}

func newCoordinator() *Coordinator {
	return &Coordinator{
		barriers: make(map[uint32]*cyclicBarrier),
		locks:    make(map[uint32]*sync.Mutex),
	}
}

func (c *Coordinator) barrier(id uint32, n int) *cyclicBarrier {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.barriers[id]
	if !ok {
		b = &cyclicBarrier{n: n, aborted: c.aborted}
		b.cond = sync.NewCond(&b.mu)
		c.barriers[id] = b
	}
	return b
}

func (c *Coordinator) lock(id uint32) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.locks[id]
	if !ok {
		l = &sync.Mutex{}
		c.locks[id] = l
	}
	return l
}

// cyclicBarrier is a reusable counting barrier.
type cyclicBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     uint64
	aborted bool
}

func (b *cyclicBarrier) await(abort <-chan struct{}) {
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		panic(abortPanic{})
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for b.gen == gen && !b.aborted {
		// A cond var cannot select on abort; the consumer aborts
		// runs by releasing all barriers (see Streams.Abort).
		b.cond.Wait()
	}
	b.mu.Unlock()
	select {
	case <-abort:
		panic(abortPanic{})
	default:
	}
}

// release permanently unblocks all current and future waiters (abort).
func (b *cyclicBarrier) release() {
	b.mu.Lock()
	b.aborted = true
	b.count = 0
	b.gen++
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Reader consumes one thread's instruction stream for one reader set.
//
// The counters are plain fields: Next and NextBatch run on the consumer
// goroutine (the machine's event loop) only, and what the producer reads
// of them, batches and reuses, changes under the stream's mutex. Those
// two are the reader's position in the lane: it has taken batches and
// given back reuses of them, all but the one it is on.
type Reader struct {
	t       *Thread
	m       *member
	waiting bool          // under the mutex: for the lane's next batch
	wake    chan struct{} // a token ends that wait
	token   bool          // the producer owes it one (its goroutine's own)
	buf     []isa.Instr
	pos     int
	done    bool
	read    uint64
	batches uint64
	reuses  uint64 // consumed slabs given back to the lane
}

// refill gives back the spent batch and takes the next, waiting for the
// producer while the lane has none; false at end of stream.
func (r *Reader) refill() bool {
	if r.done {
		return false
	}
	t, s := r.t, r.t.s
	var wake chan struct{} // the producer's, once the mutex is free
	s.mu.Lock()
	if r.buf != nil {
		// Give the spent batch back before waiting for the next one, so
		// the producer can always reuse what this reader has finished.
		r.buf = nil
		r.reuses++
		if t.waiting && r.reuses == t.base+1 && t.released() {
			t.waiting, wake = false, t.wake
		}
	}
	for r.batches >= t.base+uint64(len(t.log)) {
		if t.closed {
			r.done = true
			s.mu.Unlock()
			return false
		}
		r.waiting = true
		if t.waiting && s.cycle(t) {
			// This wait closes a cycle through t's producer: it grows.
			t.waiting, wake = false, t.wake
		}
		s.mu.Unlock()
		signal(wake)
		wake = nil
		<-r.wake
		s.mu.Lock()
	}
	r.buf = t.log[r.batches-t.base]
	r.pos = 0
	r.batches++
	s.mu.Unlock()
	signal(wake)
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

// member is the consumer of one reader set.
type member struct {
	readers  []*Reader
	detached bool
}

// Streams is a running program: one Reader per thread for each reader
// set, plus abort plumbing. Every set sees every batch of every thread;
// a slab goes back to its thread once the last set has released it.
type Streams struct {
	// Readers is reader set 0, one Reader per thread: all of a stream
	// started for one reader.
	Readers []*Reader
	threads []Thread
	coord   *Coordinator
	abortCh chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error

	mu      sync.Mutex // guards the lanes, the reader positions and members
	members []member
	live    int    // reader sets not yet detached
	epoch   uint64 // cycle searches so far
	aborted bool
}

// Set returns reader set k, one Reader per thread.
func (s *Streams) Set(k int) []*Reader { return s.members[k].readers }

// cycle reports whether t's producer waiting for its slowest readers
// would close a cycle: a reader set behind on t waits on a thread whose
// producer waits, directly or through further sets, for t's. A set that
// waits on a lane has released all of it, so the sets on a cycle are
// all different and a stream with one reader set never has one.
func (s *Streams) cycle(t *Thread) bool {
	if len(s.members) == 1 {
		return false
	}
	s.epoch++
	return s.reaches(t, t)
}

func (s *Streams) reaches(from, to *Thread) bool {
	from.mark = s.epoch
	for _, r := range from.readers {
		if r.m.detached || r.reuses > from.base {
			continue
		}
		for _, q := range r.m.readers {
			if !q.waiting {
				continue
			}
			if u := q.t; u == to || u.waiting && u.mark != s.epoch && s.reaches(u, to) {
				return true
			}
		}
	}
	return false
}

// Detach gives back reader set k: its consumer has finished with the
// stream or failed, and reads from it no more, not even the batches it
// is on. The producers and the other sets go on without it; the last set
// to detach aborts the stream. Safe to call more than once.
func (s *Streams) Detach(k int) {
	s.mu.Lock()
	m := &s.members[k]
	if m.detached {
		s.mu.Unlock()
		return
	}
	m.detached = true
	s.live--
	for _, r := range m.readers {
		r.buf, r.done = nil, true
	}
	for i := range s.threads {
		if t := &s.threads[i]; t.waiting {
			t.waiting = false
			signal(t.wake)
		}
	}
	last := s.live == 0
	s.mu.Unlock()
	if last {
		s.Abort()
	}
}

// Abort releases the stream, finished or abandoned: it stops the emitter
// goroutines, waits for them and gives the slabs back to the process,
// all but the batch a Reader of a set still attached is on. That one
// stays the consumer's, which may go on reading it after Abort (a
// drained Reader is on none). Safe to call multiple times.
func (s *Streams) Abort() {
	s.once.Do(func() {
		s.mu.Lock()
		s.aborted = true
		s.mu.Unlock()
		close(s.abortCh)
		s.coord.mu.Lock()
		s.coord.aborted = true
		bs := make([]*cyclicBarrier, 0, len(s.coord.barriers))
		for _, b := range s.coord.barriers {
			bs = append(bs, b)
		}
		s.coord.mu.Unlock()
		for _, b := range bs {
			b.release()
		}
		s.wg.Wait()
		s.release()
	})
}

// release gives every slab back from the one place that holds it now the
// producers have exited: the one an aborted producer was filling and
// those in the lanes, but for any an attached reader is on. Under the
// mutex, a consumer still running gives its batch back either before the
// drain or past it, when the lane is empty and ends its stream.
func (s *Streams) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.threads {
		t := &s.threads[i]
		putSlab(t.buf)
		t.buf = nil
		for j, b := range t.log {
			if !t.onIt(t.base + uint64(j)) {
				putSlab(b)
			}
			t.log[j] = nil
		}
		t.log = t.log[:0]
	}
}

// onIt reports whether an attached reader is on the lane's batch seq.
func (t *Thread) onIt(seq uint64) bool {
	for _, r := range t.readers {
		if !r.m.detached && r.batches > seq && r.reuses <= seq {
			return true
		}
	}
	return false
}

// ErrPanicked is what Streams.Err wraps: a workload goroutine panicked.
var ErrPanicked = errors.New("panicked")

// Err returns the first panic (other than abort) raised by a workload
// goroutine, if any, wrapping ErrPanicked.
func (s *Streams) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Wait blocks until all emitter goroutines have finished. It gives no
// slab back: that is Abort's, after Wait as much as instead of it.
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
	for _, r := range s.members[k].readers {
		c.Batches += r.batches
		c.Instructions += r.read
		c.SlabReuses += r.reuses
	}
	return c
}

// Start launches nthreads goroutines running body and returns their
// streams, each read by readers reader sets. body receives the
// per-thread emission context. The streams hold slabs borrowed from the
// process until Abort, which every caller owes them (or Detach of every
// set), a drained stream included; one that is merely dropped takes its
// slabs to the collector and the next run makes new ones. A non-nil tap
// mirrors every flushed batch.
func Start(nthreads, readers int, body func(t *Thread), tap Tap) *Streams {
	if nthreads <= 0 {
		panic("emitter: nthreads must be positive")
	}
	if readers <= 0 {
		panic("emitter: a stream needs a reader")
	}
	s := &Streams{
		threads: make([]Thread, nthreads),
		coord:   newCoordinator(),
		abortCh: make(chan struct{}),
		members: make([]member, readers),
		live:    readers,
	}
	rs := make([]Reader, readers*nthreads)
	views := make([]*Reader, 2*readers*nthreads) // by set, then by lane
	logs := make([][]isa.Instr, nthreads*poolSize)
	for k := range s.members {
		s.members[k].readers = views[k*nthreads : (k+1)*nthreads : (k+1)*nthreads]
	}
	byLane := views[readers*nthreads:]
	for i := range s.threads {
		t := &s.threads[i]
		*t = Thread{
			ID:      i,
			N:       nthreads,
			s:       s,
			coord:   s.coord,
			abort:   s.abortCh,
			buf:     slabPool.Get(),
			slabs:   1,
			rng:     0x9E3779B97F4A7C15 ^ (uint64(i+1) * 0xBF58476D1CE4E5B9),
			tap:     tap,
			readers: byLane[i*readers : (i+1)*readers : (i+1)*readers],
			log:     logs[i*poolSize : i*poolSize : (i+1)*poolSize],
			wake:    make(chan struct{}, 1),
		}
		for k := range s.members {
			r := &rs[k*nthreads+i]
			r.t, r.m, r.wake = t, &s.members[k], make(chan struct{}, 1)
			s.members[k].readers[i], t.readers[k] = r, r
		}
	}
	// Every lane is wired before any producer runs: a cycle search
	// reads them all.
	for i := range s.threads {
		t := &s.threads[i]
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				t.closed = true
				t.unlockWaking()
			}()
			defer func() {
				if r := recover(); r != nil {
					t.releaseHeld()
					if _, isAbort := r.(abortPanic); isAbort {
						return
					}
					s.errMu.Lock()
					if s.err == nil {
						s.err = fmt.Errorf("emitter thread %d %w: %v", t.ID, ErrPanicked, r)
					}
					s.errMu.Unlock()
				}
			}()
			body(t)
			t.send() // the last batch needs no successor slab
		}()
	}
	s.Readers = s.members[0].readers
	return s
}
