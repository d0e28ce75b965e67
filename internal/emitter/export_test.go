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

// Unread is how many batches thread i has sent that reader set 0 has not
// yet taken.
func (s *Streams) Unread(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.threads[i]
	return int(t.base + uint64(len(t.log)) - s.Readers[i].batches)
}
