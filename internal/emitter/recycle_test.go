package emitter

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"flashsim/internal/isa"
)

// TestBatchBuffersAreRecycled pins the slab pool: a stream long enough
// to cycle the pool many times must keep reusing the same backing
// arrays rather than allocating one per send.
func TestBatchBuffersAreRecycled(t *testing.T) {
	const batches = 64 // well past poolSize circulations
	s := Start(1, 1, func(th *Thread) { th.IntOps(batches * BatchSize) }, nil)
	rd := s.Readers[0]
	seen := map[*isa.Instr]int{} // first-element pointer identifies a slab
	n := 0
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
		n++
		seen[&rd.buf[0]]++
	}
	s.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != batches*BatchSize {
		t.Fatalf("consumed %d instructions, want %d", n, batches*BatchSize)
	}
	if len(seen) > poolSize {
		t.Fatalf("saw %d distinct batch buffers over %d batches; pool of %d is not recycling",
			len(seen), batches, poolSize)
	}
}

// TestEmitterSteadyStateZeroAlloc pins the tentpole invariant on the
// emit/consume cycle: once the pool is primed, Thread.emit and
// Reader.Next allocate nothing. The emitting goroutine's channel parks
// can transiently allocate scheduler bookkeeping (sudog caching), so
// the bound is "essentially zero per instruction", not a hard zero per
// round.
func TestEmitterSteadyStateZeroAlloc(t *testing.T) {
	const perRound = 4 * BatchSize
	const rounds = 16
	s := Start(1, 1, func(th *Thread) {
		// Enough instructions for warmup plus every measured round.
		th.IntOps(perRound * (rounds + 4))
	}, nil)
	defer s.Abort()
	rd := s.Readers[0]
	for i := 0; i < 2*perRound; i++ { // warm the pool to steady state
		if _, ok := rd.Next(); !ok {
			t.Fatal("stream ended during warmup")
		}
	}
	avg := testing.AllocsPerRun(rounds-1, func() {
		for i := 0; i < perRound; i++ {
			if _, ok := rd.Next(); !ok {
				t.Fatal("stream ended during measurement")
			}
		}
	})
	// perRound instructions and 4 batch hand-offs per round: even one
	// alloc per *batch* would show up as >= 4.
	if avg > 2 {
		t.Fatalf("steady-state consume allocates %.1f allocs per %d instructions, want ~0", avg, perRound)
	}
}

// BenchmarkEmitterThroughput measures the raw produce/consume rate of
// one thread's instruction stream in steady state — the figure the
// batch-recycling change moves. Allocations are reported; steady state
// must be 0 allocs/op.
func BenchmarkEmitterThroughput(b *testing.B) {
	s := Start(1, 1, func(th *Thread) {
		for {
			th.IntOps(BatchSize)
		}
	}, nil)
	defer s.Abort()
	rd := s.Readers[0]
	for i := 0; i < 2*poolSize*BatchSize; i++ { // prime the pool
		rd.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rd.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// TestNextAndNextBatchAgree drains one program three ways — by Next, by
// NextBatch, and alternating the two — and requires the same
// instructions and the same consumer-side counters each time: Batches,
// Instructions and SlabReuses end up in Result.Metrics, so they are
// memoized and digested.
func TestNextAndNextBatchAgree(t *testing.T) {
	body := func(th *Thread) {
		for i := 0; i < 3*BatchSize+100; i++ {
			v := th.Load(uint64(i)*8, 8, None, None)
			th.Store(uint64(i)*8+4, 4, v, None)
			if i%1000 == 999 {
				th.Barrier(uint32(i)) // a short batch
			}
		}
	}
	type drained struct {
		ins []isa.Instr
		ctr Stats
	}
	drainBy := func(next func(r *Reader, i int) []isa.Instr) drained {
		s := Start(1, 1, body, nil)
		r := s.Readers[0]
		var d drained
		for i := 0; ; i++ {
			got := next(r, i)
			if got == nil {
				break
			}
			d.ins = append(d.ins, got...) // a copy: the slab is recycled
		}
		s.Wait()
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		d.ctr = s.Counters(0)
		return d
	}
	one := func(r *Reader, _ int) []isa.Instr {
		if in, ok := r.Next(); ok {
			return []isa.Instr{in}
		}
		return nil
	}
	batch := func(r *Reader, _ int) []isa.Instr { return r.NextBatch() }
	want := drainBy(one)
	if len(want.ins) != 2*(3*BatchSize+100)+6 {
		t.Fatalf("drained %d instructions by Next", len(want.ins))
	}
	for name, next := range map[string]func(*Reader, int) []isa.Instr{
		"NextBatch": batch,
		"alternating": func(r *Reader, i int) []isa.Instr {
			if i%3 == 2 { // two single steps into a batch, then its rest
				return batch(r, i)
			}
			return one(r, i)
		},
	} {
		got := drainBy(next)
		if !reflect.DeepEqual(got.ins, want.ins) {
			t.Errorf("%s: %d instructions differ from the %d Next returns", name, len(got.ins), len(want.ins))
		}
		if got.ctr != want.ctr {
			t.Errorf("%s: counters %+v, want %+v", name, got.ctr, want.ctr)
		}
	}
}

// TestRecycledSlotsAreFullyOverwritten: emit writes all six fields of a
// slot every time. Once every slab in the pool has been filled with
// instructions that set every field, bare IntOps must come back with
// the others zero; a field emit skipped would still hold what was
// written into the slot a pool's worth of batches earlier.
func TestRecycledSlotsAreFullyOverwritten(t *testing.T) {
	const n = 2 * poolSize * BatchSize // of each kind: twice round the pool
	s := Start(1, 1, func(th *Thread) {
		v := None
		for i := 0; i < n; i += 2 {
			v = th.Load(0xdead0000+uint64(i), 8, v, v)
			th.CacheOp(0xbeef0000+uint64(i), 0x15)
		}
		th.IntOps(n)
	}, nil)
	rd := s.Readers[0]
	for i := 0; i < n; i++ {
		rd.Next()
	}
	for i := 0; i < n; i++ {
		if in, ok := rd.Next(); !ok || in != (isa.Instr{Op: isa.IntALU}) {
			t.Fatalf("IntOps instruction %d read back as op %v addr %#x size %d deps %d/%d aux %#x (ok=%v); a recycled slot kept an old field",
				i, in.Op, in.Addr, in.Size, in.Dep1, in.Dep2, in.Aux, ok)
		}
	}
	s.Abort() // the last instruction is read, but the stream not to its end

	if reuses := s.Counters(0).SlabReuses; reuses < 2*poolSize {
		t.Fatalf("only %d slabs were recycled; the test did not reach reused slots", reuses)
	}
}

// drainSet reads reader set k of s in the given thread order, each
// thread to its end before the next, on one goroutine the way a machine
// would, and returns what it read per thread.
func drainSet(s *Streams, k int, order []int) [][]isa.Instr {
	got := make([][]isa.Instr, len(order))
	for _, i := range order {
		for b := s.Set(k)[i].NextBatch(); b != nil; b = s.Set(k)[i].NextBatch() {
			got[i] = append(got[i], b...)
		}
	}
	return got
}

// TestFanOutKeepsThePool: one thread read by three reader sets, each
// on its own goroutine, reuses the same slabs it would for one; every
// set reads the whole stream.
func TestFanOutKeepsThePool(t *testing.T) {
	const batches = 64
	s := Start(1, 3, func(th *Thread) { th.IntOps(batches * BatchSize) }, nil)
	seen := make([]map[*isa.Instr]bool, 3)
	read := make([]int, 3)
	var wg sync.WaitGroup
	for k := range seen {
		seen[k] = map[*isa.Instr]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := s.Set(k)[0]
			for b := r.NextBatch(); b != nil; b = r.NextBatch() {
				read[k] += len(b)
				seen[k][&r.buf[0]] = true
			}
		}()
	}
	wg.Wait()
	s.Abort()
	for k := range seen {
		if read[k] != batches*BatchSize {
			t.Errorf("set %d read %d instructions, want %d", k, read[k], batches*BatchSize)
		}
		if len(seen[k]) > poolSize {
			t.Errorf("set %d saw %d distinct slabs over %d batches; a pool of %d is not recycling", k, len(seen[k]), batches, poolSize)
		}
	}
}

// TestSharedEmissionSurvivesSkew: two reader sets that read two threads
// in opposite orders, each thread to its end first, would each wait on a
// thread whose producer waits for the other set. The cycle is the one
// case a producer borrows past poolSize: both sets read every batch, in
// order, and the stream ends.
func TestSharedEmissionSurvivesSkew(t *testing.T) {
	body := func(th *Thread) {
		for i := 0; i < 3*poolSize*BatchSize; i++ {
			th.Load(uint64(th.ID)<<32|uint64(i)*8, 8, None, None)
		}
	}
	solo := Start(2, 1, body, nil)
	want := drainSet(solo, 0, []int{0, 1})
	solo.Abort()

	s := Start(2, 2, body, nil)
	got := make([][][]isa.Instr, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for k, order := range [][]int{{0, 1}, {1, 0}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k] = drainSet(s, k, order)
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("two reader sets in opposite orders deadlocked the stream")
	}
	s.Abort()
	for k := range got {
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("set %d read a different stream than a solo reader", k)
		}
	}
}

// BenchmarkEmitterHandOff measures what a batch costs beyond its
// instructions: each op is a batch of one BARRIER from a one-thread
// program, so emit, send, the turn both ways and refill are all it does.
func BenchmarkEmitterHandOff(b *testing.B) {
	s := Start(1, 1, func(th *Thread) {
		for {
			th.Barrier(0)
		}
	}, nil)
	defer s.Abort()
	rd := s.Readers[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rd.NextBatch() == nil {
			b.Fatal("stream ended")
		}
	}
}
