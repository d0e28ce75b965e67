package recycle

import "testing"

// TestBinIsABoundedLIFO: Get lends the newest value put back, Put past
// the bound drops, and Get makes a value only when the bin is empty.
func TestBinIsABoundedLIFO(t *testing.T) {
	next := 100
	b := NewBin(3, func() int { next++; return next })
	for i := 1; i <= 5; i++ {
		b.Put(i)
	}
	for _, want := range []int{3, 2, 1, 101, 102} {
		if got := b.Get(); got != want {
			t.Fatalf("Get = %d, want %d", got, want)
		}
	}
	b.Locked(func(free *[]int, made uint64) {
		if len(*free) != 0 || made != 2 {
			t.Errorf("free %v, made %d; want empty and 2", *free, made)
		}
	})
}

// TestGetForgetsWhatItLends: the slot a value is lent from is cleared,
// or the list's array would keep a value its borrower dropped reachable.
func TestGetForgetsWhatItLends(t *testing.T) {
	b := NewBin(4, func() *int { return new(int) })
	b.Put(new(int))
	b.Put(new(int))
	b.Get()
	b.Get()
	if stale := b.free[:cap(b.free)]; stale[0] != nil || stale[1] != nil {
		t.Errorf("the list's array still names lent values: %v", stale)
	}
}

func TestZeroedReusesALongEnoughArray(t *testing.T) {
	s := []int{1, 2, 3, 4}
	z := Zeroed(s, 3)
	if &z[0] != &s[0] || len(z) != 3 || z[0]|z[1]|z[2] != 0 {
		t.Errorf("Zeroed(s, 3) = %v in a new array: %v", z, &z[0] != &s[0])
	}
	if z = Zeroed(s[:1], 5); len(z) != 5 || &z[0] == &s[0] {
		t.Errorf("Zeroed past the capacity = %v, in s's array: %v", z, &z[0] == &s[0])
	}
}

// TestRenewKeepsElementsPastLength: shrinking and growing back within the
// array reuses the same elements, each reset; a missing one is made.
func TestRenewKeepsElementsPastLength(t *testing.T) {
	resets := 0
	reset := func(x *int) { *x = 0; resets++ }
	s := Renew(nil, 3, reset)
	first := append([]*int(nil), s...)
	*s[2] = 7
	s = Renew(s, 1, reset)
	s = Renew(s, 4, reset)
	for i, x := range first {
		if s[i] != x {
			t.Errorf("element %d is new after a shrink and a grow", i)
		}
	}
	if s[3] == nil || *s[2] != 0 || resets != 3+1+4 {
		t.Errorf("s = %v after %d resets; want 4 reset elements after 8", s, resets)
	}
}
