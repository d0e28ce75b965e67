package emitter

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"flashsim/internal/isa"
)

// drain collects all instructions from a reader.
func drain(r *Reader) []isa.Instr {
	var out []isa.Instr
	for {
		in, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}

func TestSingleThreadEmission(t *testing.T) {
	s := Start(1, 1, func(th *Thread) {
		v := th.Load(0x1000, 8, None, None)
		w := th.IntALU(v, None)
		th.Store(0x2000, 8, w, None)
	}, nil)
	ins := drain(s.Readers[0])
	s.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 {
		t.Fatalf("emitted %d instructions, want 3", len(ins))
	}
	if ins[0].Op != isa.Load || ins[1].Op != isa.IntALU || ins[2].Op != isa.Store {
		t.Fatalf("ops: %v", ins)
	}
	if ins[1].Dep1 != 1 {
		t.Errorf("ALU should depend on load at distance 1, got %d", ins[1].Dep1)
	}
	if ins[2].Dep1 != 1 {
		t.Errorf("store should depend on ALU at distance 1, got %d", ins[2].Dep1)
	}
}

func TestDependenceDistances(t *testing.T) {
	s := Start(1, 1, func(th *Thread) {
		a := th.Load(0, 8, None, None) // idx 0
		th.IntOps(5)                   // idx 1..5
		th.FPAdd(a, None)              // idx 6: distance 6
	}, nil)
	ins := drain(s.Readers[0])
	s.Wait()
	if ins[6].Dep1 != 6 {
		t.Fatalf("distance = %d, want 6", ins[6].Dep1)
	}
}

func TestNoneDependence(t *testing.T) {
	s := Start(1, 1, func(th *Thread) {
		th.IntALU(None, None)
	}, nil)
	ins := drain(s.Readers[0])
	s.Wait()
	if ins[0].Dep1 != 0 || ins[0].Dep2 != 0 {
		t.Fatalf("None should encode 0: %v", ins[0])
	}
}

func TestBatchBoundary(t *testing.T) {
	n := BatchSize*3 + 17
	s := Start(1, 1, func(th *Thread) { th.IntOps(n) }, nil)
	ins := drain(s.Readers[0])
	s.Wait()
	if len(ins) != n {
		t.Fatalf("got %d instructions, want %d", len(ins), n)
	}
}

func TestBarrierKeepsThreadsConsistent(t *testing.T) {
	const nt = 4
	shared := make([]int, nt)
	s := Start(nt, 1, func(th *Thread) {
		shared[th.ID] = th.ID + 1
		th.Barrier(5)
		sum := 0
		for _, v := range shared {
			sum += v
		}
		if sum != nt*(nt+1)/2 {
			panic("barrier did not order writes")
		}
		th.IntOps(1)
	}, nil)
	done := make(chan struct{})
	go func() {
		for _, r := range s.Readers {
			drain(r)
		}
		close(done)
	}()
	<-done
	s.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierInstructionFlushedBeforeBlocking(t *testing.T) {
	// One thread reaches the barrier; its BARRIER instruction must be
	// readable even though the other thread has not arrived yet.
	s := Start(2, 1, func(th *Thread) {
		if th.ID == 0 {
			th.Barrier(9)
			return
		}
		th.IntOps(3)
		th.Barrier(9)
	}, nil)
	in, ok := s.Readers[0].Next()
	if !ok || in.Op != isa.Barrier || in.Aux != 9 {
		t.Fatalf("expected barrier instruction, got %v ok=%v", in, ok)
	}
	drain(s.Readers[0])
	drain(s.Readers[1])
	s.Wait()
}

func TestLockMutualExclusion(t *testing.T) {
	const nt = 4
	counter := 0
	s := Start(nt, 1, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Lock(1)
			counter++
			th.Unlock(1)
		}
	}, nil)
	done := make(chan struct{})
	go func() {
		for _, r := range s.Readers {
			drain(r)
		}
		close(done)
	}()
	<-done
	s.Wait()
	if counter != nt*100 {
		t.Fatalf("lost updates: %d", counter)
	}
}

// TestAbortUnblocksEverything: Abort unwinds a producer parked at a
// barrier, one parked holding a lock and one parked after a send, and
// gives back every slab their Readers are not on.
func TestAbortUnblocksEverything(t *testing.T) {
	s := ParkEverywhere()
	if w := s.threads[0].waits; w != isa.Barrier {
		t.Errorf("thread 0 waits at %v, want the barrier", w)
	}
	if owner, held := s.locks[1]; !held || owner != 1 {
		t.Errorf("lock 1 held %v by thread %d, want thread 1", held, owner)
	}
	if th := &s.threads[2]; th.closed || th.waits != isa.Nop {
		t.Errorf("thread 2 closed %v, waits at %v: want it parked after a send", th.closed, th.waits)
	}
	s.Abort()
	if err := s.Err(); err != nil {
		t.Fatalf("abort should not report an error: %v", err)
	}
	if n := s.Holds(); n != 0 {
		t.Errorf("an aborted stream still references %d slabs", n)
	}
}

// TestAbortWhileHoldingLock: Abort unwinds a producer parked holding a
// lock another producer is about to wait for.
func TestAbortWhileHoldingLock(t *testing.T) {
	s := Start(2, 1, func(th *Thread) {
		th.Lock(1)
		th.IntOps(BatchSize * 100)
		th.Unlock(1)
	}, nil)
	s.Readers[0].NextBatch() // its LOCK
	s.Readers[0].NextBatch() // the first batch under the lock
	s.Readers[1].NextBatch() // its LOCK: the lock is thread 0's
	if owner, held := s.locks[1]; !held || owner != 0 {
		t.Fatalf("lock 1 held %v by thread %d, want thread 0", held, owner)
	}
	s.Abort()
	if err := s.Err(); err != nil {
		t.Fatalf("abort should not report an error: %v", err)
	}
}

// TestDeadlockIsReported: thread 0 waits at a barrier that thread 1
// returns without joining. The reader that needs thread 0's next batch
// sees its stream end, and Err says the workload deadlocked.
func TestDeadlockIsReported(t *testing.T) {
	s := Start(2, 1, func(th *Thread) {
		if th.ID == 0 {
			th.Barrier(5)
			th.IntOps(10)
		}
	}, nil)
	defer s.Abort()
	got := make(chan []isa.Instr, 1)
	go func() { got <- drain(s.Readers[0]) }()
	select {
	case ins := <-got:
		if len(ins) != 1 || ins[0].Op != isa.Barrier {
			t.Errorf("thread 0's stream is %v, want its BARRIER alone", ins)
		}
	case <-time.After(time.Minute):
		t.Fatal("reading past a barrier no other thread joins hangs")
	}
	if ins := drain(s.Readers[1]); len(ins) != 0 {
		t.Errorf("thread 1 emitted %d instructions, want none", len(ins))
	}
	if err := s.Err(); !errors.Is(err, ErrDeadlocked) || errors.Is(err, ErrPanicked) {
		t.Errorf("Err() = %v, want one that is ErrDeadlocked alone", err)
	}
}

// TestLockOrderAgainstReadOrder: thread 1 takes the lock before the
// barrier and holds it for three pools' worth of batches; thread 0
// wants it after the barrier. A reader of thread 0 first runs thread 1,
// which borrows past poolSize, until it lets the lock go, and both
// streams are the ones a reader of thread 1 first sees.
func TestLockOrderAgainstReadOrder(t *testing.T) {
	body := func(th *Thread) {
		if th.ID == 1 {
			th.Lock(1)
			th.Barrier(5)
			th.IntOps(3 * poolSize * BatchSize)
			th.Unlock(1)
			return
		}
		th.Barrier(5)
		th.Lock(1)
		th.IntOps(10)
		th.Unlock(1)
	}
	drainIn := func(order []int) [][]isa.Instr {
		s := Start(2, 1, body, nil)
		defer s.Abort()
		got := drainSet(s, 0, order)
		if err := s.Err(); err != nil {
			t.Error(err)
		}
		return got
	}
	first := make(chan [][]isa.Instr, 1)
	go func() { first <- drainIn([]int{0, 1}) }()
	select {
	case got := <-first:
		if want := drainIn([]int{1, 0}); !reflect.DeepEqual(got, want) {
			t.Errorf("reading thread 0 first gives streams of %d and %d instructions, thread 1 first %d and %d",
				len(got[0]), len(got[1]), len(want[0]), len(want[1]))
		}
	case <-time.After(time.Minute):
		t.Fatal("reading thread 0 first hangs on the lock thread 1 holds")
	}
}

func TestWorkloadPanicIsReported(t *testing.T) {
	s := Start(1, 1, func(th *Thread) {
		panic("boom")
	}, nil)
	drain(s.Readers[0])
	s.Wait()
	if err := s.Err(); err == nil {
		t.Fatal("expected panic to surface via Err")
	}
}

func TestRandDeterministicPerThread(t *testing.T) {
	collect := func() [2]uint64 {
		var got [2]uint64
		s := Start(2, 1, func(th *Thread) {
			v := th.Rand()
			got[th.ID] = v
		}, nil)
		for _, r := range s.Readers {
			drain(r)
		}
		s.Wait()
		return got
	}
	a, b := collect(), collect()
	if a != b {
		t.Fatalf("Rand not deterministic: %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Fatal("threads share a PRNG stream")
	}
}

func TestReaderConsumedCount(t *testing.T) {
	s := Start(1, 1, func(th *Thread) { th.IntOps(10) }, nil)
	r := s.Readers[0]
	drain(r)
	s.Wait()
	if n := s.Counters(0).Instructions; n != 10 {
		t.Fatalf("consumed %d, want 10", n)
	}
}

func TestStartRejectsZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Start(0, 1, func(*Thread) {}, nil)
}
