package emitter

import (
	"reflect"
	"sync"
	"testing"

	"flashsim/internal/isa"
)

// tapRecorder accumulates tapped batches per thread. Each thread's tap
// calls arrive from that thread's emitting goroutine, so per-thread
// slices need no locking; the map is pre-sized.
type tapRecorder struct {
	mu      sync.Mutex
	streams map[int][]isa.Instr
	batches map[int]int
}

func (r *tapRecorder) tap(thread int, batch []isa.Instr) {
	// The contract forbids retaining batch; copy before the pool
	// recycles the slab.
	cp := append([]isa.Instr(nil), batch...)
	r.mu.Lock()
	r.streams[thread] = append(r.streams[thread], cp...)
	r.batches[thread]++
	r.mu.Unlock()
}

// TestTapMirrorsStreams pins the capture contract: a tapped emission
// delivers every batch to the tap, in order, identical to what the
// readers consume — across batch boundaries and multiple threads —
// without disturbing the reader side or the slab pool discipline.
func TestTapMirrorsStreams(t *testing.T) {
	const threads = 3
	const perThread = 3*BatchSize + 17 // cross several batch boundaries
	rec := &tapRecorder{streams: make(map[int][]isa.Instr), batches: make(map[int]int)}
	s := Start(threads, func(th *Thread) {
		for i := 0; i < perThread; i++ {
			th.Store(uint64(0x1000+8*i), 8, None, None)
		}
	}, rec.tap)

	read := make([][]isa.Instr, threads)
	var wg sync.WaitGroup
	for i := range s.Readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			read[i] = drain(s.Readers[i])
		}(i)
	}
	wg.Wait()
	s.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	wantBatches := (perThread + BatchSize - 1) / BatchSize
	for i := 0; i < threads; i++ {
		if !reflect.DeepEqual(rec.streams[i], read[i]) {
			t.Fatalf("thread %d: tap saw %d instructions, reader %d (or order differs)",
				i, len(rec.streams[i]), len(read[i]))
		}
		if rec.batches[i] != wantBatches {
			t.Fatalf("thread %d: tap called %d times, want %d", i, rec.batches[i], wantBatches)
		}
	}
	// Tap calls equal channel sends, so the counters agree with the
	// recorder — the accounting replay relies on (trace footer Batches).
	c := s.Counters()
	if c.Batches != uint64(threads*wantBatches) || c.Instructions != uint64(threads*perThread) {
		t.Fatalf("counters %+v, want %d batches / %d instructions",
			c, threads*wantBatches, threads*perThread)
	}
	// Full pool discipline: every consumed slab was recycled.
	if c.SlabReuses != c.Batches {
		t.Fatalf("slab reuses %d != batches %d: tap broke pool discipline", c.SlabReuses, c.Batches)
	}
}

// TestStartIsUntapped pins that the plain Start path has no tap (the
// hot path stays a nil check).
func TestStartIsUntapped(t *testing.T) {
	s := Start(1, func(th *Thread) { th.Store(0x1000, 8, None, None) }, nil)
	ins := drain(s.Readers[0])
	s.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 {
		t.Fatalf("emitted %d instructions", len(ins))
	}
}
