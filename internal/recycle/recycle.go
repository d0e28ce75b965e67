// Package recycle holds the process's free lists: what one run made and
// gave back, lent to the next run instead of made again.
package recycle

import "sync"

// Bin is a process-wide free list: a LIFO under a mutex with a constant
// bound, not a sync.Pool, which drops entries at every GC cycle and at
// random under -race, where "every part comes back once" must be
// counted (DESIGN.md §7). Get lends the newest value put back, so a run
// gets the arrays the last one warmed; past the bound Put drops what it
// is given to the collector.
type Bin[T any] struct {
	mu    sync.Mutex
	free  []T
	bound int
	make  func() T
	made  uint64 // values Get had to make; only tests read it
}

// NewBin returns an empty bin that keeps at most bound values and makes
// one with make when it has none to lend.
func NewBin[T any](bound int, make func() T) *Bin[T] {
	return &Bin[T]{bound: bound, make: make}
}

// Get lends the newest value the bin keeps, or a new one.
func (b *Bin[T]) Get() T {
	b.mu.Lock()
	n := len(b.free)
	if n == 0 {
		b.made++
		b.mu.Unlock()
		return b.make()
	}
	x := b.free[n-1]
	var zero T
	b.free[n-1] = zero // or the list pins a value its borrower dropped
	b.free = b.free[:n-1]
	b.mu.Unlock()
	return x
}

// Put takes back a value no one uses any more; past the bound it is
// left to the collector.
func (b *Bin[T]) Put(x T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.free) < b.bound {
		b.free = append(b.free, x)
	}
}

// Locked calls f under the bin's lock with its free list, which f may
// empty, and the count of values Get has made: the one view tests take.
func (b *Bin[T]) Locked(f func(free *[]T, made uint64)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f(&b.free, b.made)
}

// Zeroed returns s resized to n and zeroed, in s's backing array when
// that is long enough.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Renew returns s resized to n with reset applied to each element, in
// s's backing array when that is long enough. The elements it holds,
// those past len(s) included, are reused; a nil one is made new.
func Renew[T any](s []*T, n int, reset func(*T)) []*T {
	s = s[:cap(s)]
	if len(s) < n {
		s = append(s, make([]*T, n-len(s))...)
	}
	s = s[:n]
	for i, x := range s {
		if x == nil {
			x = new(T)
			s[i] = x
		}
		reset(x)
	}
	return s
}
