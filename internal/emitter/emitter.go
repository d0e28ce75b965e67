// Package emitter turns ordinary Go code into per-thread instruction
// streams of the synthetic ISA.
//
// A workload (see internal/apps) is a real algorithm whose inner loops
// are written against the Thread API: t.Load/t.Store/t.FPAdd/... Each
// call both performs no actual data movement (the algorithm keeps its
// data in normal Go variables) and appends one isa.Instr, with true data
// dependences tracked through Val handles, to a batched channel that the
// processor models consume. This reproduces the paper's methodology of
// running the *same binary* on every platform: the identical instruction
// stream is replayed by Mipsy, MXS, and the hardware reference model.
//
// Threads run as goroutines and synchronize with *real* barriers and
// mutexes that mirror the semantic BARRIER/LOCK instructions they emit,
// so a parallel algorithm computes consistent data while its timing is
// decided entirely by the simulated machine. The emitted sync
// instruction is always flushed to the channel before the goroutine
// blocks, which makes the scheme deadlock-free: by the time every
// simulated processor has arrived at a barrier, every emitter goroutine
// has already arrived at the real one.
package emitter

import (
	"fmt"
	"sync"

	"flashsim/internal/isa"
)

// BatchSize is the number of instructions per channel send: it amortizes
// the hand-off, leaving the slab write and read. One IntOps instruction
// through emit and Next (BenchmarkEmitterThroughput -cpu 1) is 6.0-7.1 ns;
// it was 12.1-14.5 while emit took an isa.Instr by value and appended it.
const BatchSize = 2048

// chanDepth is the number of in-flight batches per thread.
const chanDepth = 8

// poolSize is the most instruction-batch buffers a thread ever holds.
// The buffers circulate: Thread fills one, sends it on the data channel,
// and takes its next from the free channel, which the Reader refills as
// it finishes consuming each batch. chanDepth can be in flight, one is
// being filled, and the slack buffer keeps the producer from blocking
// on the Reader's hand-off in steady state — so a billion-instruction
// run reuses this fixed set of slabs instead of taking one per send. A
// slab is borrowed from the process (slabPool) only when the producer
// needs one and none has come back yet, so a thread that emits three
// batches holds three; Streams.Abort gives them back, and the next run
// fills the same arrays instead of making and zeroing its own.
const poolSize = chanDepth + 1

// maxRetained bounds what slabPool keeps while no run holds it: 32
// threads x poolSize = 288 slabs = 18 MB, all that an mp-contend-sized
// run has in flight. A 128-node run has 1 152; it makes the rest, and
// they are dropped on return rather than held by an idle process.
const maxRetained = 32 * poolSize

// slabPool is the process-wide free list: a LIFO under a mutex, not a
// sync.Pool, which two GC cycles inside a run empty before lock-heavy
// threads ask for their later slabs (DESIGN.md §7). Slabs come back and
// go out dirty: emit writes every field of every slot it hands on.
var slabPool struct {
	mu   sync.Mutex
	free [][]isa.Instr
	made uint64 // slabs getSlab had to make; only tests read it
}

// getSlab lends an empty slab, a retained one before a new one.
func getSlab() []isa.Instr {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	n := len(slabPool.free)
	if n == 0 {
		slabPool.made++
		return make([]isa.Instr, 0, BatchSize)
	}
	b := slabPool.free[n-1]
	slabPool.free[n-1] = nil // or the list pins a slab its borrower dropped
	slabPool.free = slabPool.free[:n-1]
	return b
}

// putSlab takes back a slab (nil: none) that no stream references any
// more; past maxRetained it is left to the collector.
func putSlab(b []isa.Instr) {
	slabPool.mu.Lock()
	defer slabPool.mu.Unlock()
	if b != nil && len(slabPool.free) < maxRetained {
		slabPool.free = append(slabPool.free, b[:0])
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

	coord *Coordinator
	ch    chan []isa.Instr
	free  chan []isa.Instr // recycled batch buffers from the Reader
	abort <-chan struct{}
	buf   []isa.Instr
	slabs int    // batch buffers borrowed so far, at most poolSize
	count uint64 // instructions emitted so far
	rng   uint64 // per-thread deterministic PRNG state
	held  map[uint32]*sync.Mutex
	tap   Tap
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

// send hands a non-empty batch to the consumer and reports whether it
// did; the slab is then the consumer's and t.buf lets go of it (an abort
// must not find it on both sides), so only flush, which replaces it, and
// the end of the stream call this.
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
	select {
	case t.ch <- t.buf:
	case <-t.abort:
		panic(abortPanic{})
	}
	t.buf = nil
	return true
}

// flush hands the batch being filled to the consumer and takes an empty
// slab for the next one.
func (t *Thread) flush() {
	if !t.send() {
		return
	}
	// Take the next slab: one more of the process's while none has come
	// back and the thread holds fewer than poolSize, else from the ring.
	// The Reader returns each consumed buffer before blocking for the
	// next batch, so this receive cannot deadlock against a live
	// consumer; an abandoned consumer is handled by the abort arm.
	if len(t.free) == 0 && t.slabs < poolSize {
		t.slabs++
		t.buf = getSlab()
		return
	}
	select {
	case b := <-t.free:
		t.buf = b[:0]
	case <-t.abort:
		panic(abortPanic{})
	}
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

// Reader consumes one thread's instruction stream.
//
// The counters are plain fields: Next and NextBatch run on the consumer
// goroutine (the machine's event loop) only, so no synchronization is
// needed and none would be affordable on this path.
type Reader struct {
	ch      <-chan []isa.Instr
	free    chan<- []isa.Instr // consumed buffers go back to the Thread
	buf     []isa.Instr
	pos     int
	done    bool
	read    uint64
	batches uint64
	reuses  uint64 // consumed buffers successfully recycled to the pool
}

// refill recycles the spent batch and blocks for the next one; false at
// end of stream.
func (r *Reader) refill() bool {
	if r.done {
		return false
	}
	if r.buf != nil {
		// Recycle the consumed batch before blocking for the next
		// one, so the producer always has a slab to fill. The pool
		// channel has room for every buffer in circulation, so this
		// send never blocks; the default arm only covers readers
		// fed outside Start (tests).
		select {
		case r.free <- r.buf[:0]:
			r.reuses++
		default:
		}
		r.buf = nil
	}
	batch, open := <-r.ch
	if !open {
		r.done = true
		return false
	}
	r.buf = batch
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

// Streams is a running program: one Reader per thread plus abort
// plumbing.
type Streams struct {
	Readers []*Reader
	threads []*Thread
	coord   *Coordinator
	abortCh chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error
}

// Abort releases the stream, finished or abandoned: it stops the emitter
// goroutines, waits for them and gives the slabs back to the process,
// all but the batch a Reader is on. That one stays the consumer's, which
// need not have stopped: a shard worker outlives the panic that ends its
// run (a drained Reader is on none). Safe to call multiple times.
func (s *Streams) Abort() {
	s.once.Do(func() {
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
// producers have exited: the one an aborted producer was filling, those
// sent and not yet read (their channel is closed), and the spent ones in
// the ring. It touches channels and the Thread only, so a consumer still
// running takes or recycles a batch either before the drain or past it.
func (s *Streams) release() {
	for i, r := range s.Readers {
		t := s.threads[i]
		putSlab(t.buf)
		t.buf = nil
		for b := range r.ch {
			putSlab(b)
		}
		for len(t.free) > 0 {
			putSlab(<-t.free)
		}
	}
}

// Err returns the first panic (other than abort) raised by a workload
// goroutine, if any.
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

// Counters sums the consumer-side stream counters across all Readers.
// Call it from the consumer goroutine after the run drains (the Reader
// counters are unsynchronized by design).
func (s *Streams) Counters() Stats {
	var c Stats
	for _, r := range s.Readers {
		c.Batches += r.batches
		c.Instructions += r.read
		c.SlabReuses += r.reuses
	}
	return c
}

// Start launches nthreads goroutines running body and returns their
// streams. body receives the per-thread emission context. The streams
// hold slabs borrowed from the process until Abort, which every caller
// owes them, a drained stream included; one that is merely dropped takes
// its slabs to the collector and the next run makes new ones. A non-nil
// tap mirrors every flushed batch.
func Start(nthreads int, body func(t *Thread), tap Tap) *Streams {
	if nthreads <= 0 {
		panic("emitter: nthreads must be positive")
	}
	s := &Streams{
		Readers: make([]*Reader, nthreads),
		threads: make([]*Thread, nthreads),
		coord:   newCoordinator(),
		abortCh: make(chan struct{}),
	}
	for i := 0; i < nthreads; i++ {
		ch := make(chan []isa.Instr, chanDepth)
		// The batch pool: up to poolSize slabs per thread, recycled
		// through free for the life of the stream. The first starts in
		// the Thread's hands; flush makes the others as it needs them.
		free := make(chan []isa.Instr, poolSize)
		s.Readers[i] = &Reader{ch: ch, free: free}
		t := &Thread{
			ID:    i,
			N:     nthreads,
			coord: s.coord,
			ch:    ch,
			free:  free,
			abort: s.abortCh,
			buf:   getSlab(),
			slabs: 1,
			rng:   0x9E3779B97F4A7C15 ^ (uint64(i+1) * 0xBF58476D1CE4E5B9),
			tap:   tap,
		}
		s.threads[i] = t
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer close(ch)
			defer func() {
				if r := recover(); r != nil {
					t.releaseHeld()
					if _, isAbort := r.(abortPanic); isAbort {
						return
					}
					s.errMu.Lock()
					if s.err == nil {
						s.err = fmt.Errorf("emitter thread %d panicked: %v", t.ID, r)
					}
					s.errMu.Unlock()
				}
			}()
			body(t)
			t.send() // the last batch needs no successor slab
		}()
	}
	return s
}
