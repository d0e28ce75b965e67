package emitter

import "flashsim/internal/isa"

// What the external tests (package emitter_test, which can run whole
// machines over the streams) see of the slab pool.

const (
	PoolSize    = poolSize
	MaxRetained = maxRetained
)

// SlabsMade is how many slabs the process has had to make so far.
func SlabsMade() (n uint64) {
	slabPool.Locked(func(_ *[][]isa.Instr, made uint64) { n = made })
	return n
}

// FreeSlabs identifies every slab on the free list by its first slot.
func FreeSlabs() (ids []*isa.Instr) {
	slabPool.Locked(func(free *[][]isa.Instr, _ uint64) {
		for _, b := range *free {
			ids = append(ids, &b[:1][0])
		}
	})
	return ids
}

// StaleSlots counts the lent slabs the list's array still names past its
// length: each would stay reachable after a borrower dropped it.
func StaleSlots() (n int) {
	slabPool.Locked(func(free *[][]isa.Instr, _ uint64) {
		for _, b := range (*free)[len(*free):cap(*free)] {
			if b != nil {
				n++
			}
		}
	})
	return n
}

// DropFreeSlabs empties the free list: the pool of a process that has
// not run anything yet.
func DropFreeSlabs() {
	slabPool.Locked(func(free *[][]isa.Instr, _ uint64) { *free = nil })
}

// Holds counts the slabs s still references, the batches its Readers are
// on (which Abort leaves with them) apart; zero once Abort returned.
func (s *Streams) Holds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.threads {
		t := &s.threads[i]
		if t.buf != nil {
			n++
		}
		for j := range t.log {
			if !t.onIt(t.base + uint64(j)) {
				n++
			}
		}
	}
	return n
}

// ParkEverywhere starts three threads and reads each to a different
// place to be parked: thread 0 waits at a barrier, thread 1 holds a lock
// and has sent a batch under it, and thread 2, which held the lock
// first, has sent the batch that lets it go. Each Reader is on a batch.
func ParkEverywhere() *Streams {
	s := Start(3, 1, func(th *Thread) {
		switch th.ID {
		case 1:
			th.IntOps(5)
			th.Lock(1)
			th.IntOps(BatchSize + 5)
			th.Unlock(1)
		case 2:
			th.Lock(1)
			th.IntOps(3 * BatchSize)
			th.Unlock(1)
		}
		th.Barrier(1)
	}, nil)
	s.Readers[0].NextBatch() // its BARRIER
	s.Readers[2].NextBatch() // its LOCK
	s.Readers[2].NextBatch() // the first batch under the lock
	s.Readers[1].NextBatch() // its LOCK
	// Thread 1 waits for the lock: thread 0 runs to the barrier, and
	// thread 2 until it unlocks; then thread 1 takes the lock and sends.
	s.Readers[1].NextBatch()
	return s
}
