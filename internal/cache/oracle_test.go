package cache_test

import (
	"fmt"
	"slices"
	"testing"

	"flashsim/internal/cache"
)

// naiveLRU is the oracle: each set a list of resident lines, most
// recently used first, evicting from the back. It shares nothing with
// cache.Cache but the State type.
type naiveLRU struct {
	ways int
	sets [][]naiveLine
}

type naiveLine struct {
	addr uint64
	st   cache.State
}

// find returns la's set and its position there, -1 when absent.
func (o *naiveLRU) find(la uint64) (*[]naiveLine, int) {
	s := &o.sets[la/oracleLine%uint64(len(o.sets))]
	return s, slices.IndexFunc(*s, func(l naiveLine) bool { return l.addr == la })
}

// use moves line i of s to the front with state st.
func use(s *[]naiveLine, i int, st cache.State) {
	l := (*s)[i]
	l.st = st
	*s = slices.Insert(slices.Delete(*s, i, i+1), 0, l)
}

func (o *naiveLRU) access(la uint64, write bool) (cache.State, bool) {
	s, i := o.find(la)
	if i < 0 {
		return cache.Invalid, false
	}
	st := (*s)[i].st
	if write && st == cache.Shared {
		return st, false // an upgrade: a coherence miss
	}
	next := st
	if write {
		next = cache.Modified
	}
	use(s, i, next)
	return st, true
}

func (o *naiveLRU) insert(la uint64, st cache.State) cache.Victim {
	s, i := o.find(la)
	if i >= 0 {
		use(s, i, st)
		return cache.Victim{}
	}
	var v cache.Victim
	if len(*s) == o.ways {
		last := (*s)[o.ways-1]
		v = cache.Victim{Valid: true, Addr: last.addr, Dirty: last.st == cache.Modified, State: last.st}
		*s = (*s)[:o.ways-1]
	}
	*s = slices.Insert(*s, 0, naiveLine{la, st})
	return v
}

func (o *naiveLRU) lookup(la uint64) cache.State {
	s, i := o.find(la)
	if i < 0 {
		return cache.Invalid
	}
	return (*s)[i].st
}

// update changes la's state in place, without touching recency (to
// Invalid evicts it), and returns the state it had.
func (o *naiveLRU) update(la uint64, to func(cache.State) cache.State) cache.State {
	s, i := o.find(la)
	if i < 0 {
		return cache.Invalid
	}
	st := (*s)[i].st
	if next := to(st); next == cache.Invalid {
		*s = slices.Delete(*s, i, i+1)
	} else {
		(*s)[i].st = next
	}
	return st
}

const (
	oracleLine  = 32
	oracleSets  = 4
	oracleLines = 64 // distinct lines a script names: sixteen per set
)

// conflictScript fills one set of a 2-way cache past capacity with a
// reuse in between, so LRU, FIFO and MRU each evict a different line;
// then a dirty victim, an upgrade miss, a downgrade, and a refill of an
// invalidated way. Each op is a byte pair (op, line); see the fuzzer.
var conflictScript = []byte{1,
	14, 0, // insert line 0 Modified
	2, 4, // insert line 4 Shared (same set)
	0, 0, // read 0: 4 is now least recent
	8, 8, // insert 8 Exclusive: evicts 4
	1, 8, // write 8: Exclusive -> Modified
	2, 12, // insert 12: evicts dirty 0
	4, 8, // downgrade 8 to Shared
	1, 8, // write 8: upgrade miss
	3, 12, // invalidate 12
	2, 16, // insert 16 into the freed way
	5, 16, // mark 16 dirty
	2, 20, // insert 20: evicts 8
}

// FuzzCacheMatchesNaiveLRU runs a script of Access, Insert, Invalidate,
// Downgrade and MarkDirty on cache.Cache and on naiveLRU, and requires
// the same answer from both after every op (hit and state, victim
// address and dirtiness) and the same state for every line either
// could hold. script[0] picks 1, 2, 4 or 8 ways over four sets; each
// later pair (op, line) is an operation op%6 on line line%64 at byte
// offset op/6 within it, with state 1+op/6%3 for an Insert.
func FuzzCacheMatchesNaiveLRU(f *testing.F) {
	f.Add(conflictScript)
	f.Add([]byte{2, 2, 0, 2, 4, 2, 8, 2, 12, 0, 0, 2, 16, 2, 20, 0, 4}) // 4 ways: evicts 4, then 8
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		ways := 1 << (script[0] % 4)
		c := cache.New(cache.Config{Name: "fuzz", Size: oracleSets * oracleLine * uint64(ways), LineSize: oracleLine, Ways: ways})
		o := &naiveLRU{ways: ways, sets: make([][]naiveLine, oracleSets)}
		for i := 1; i+1 < len(script); i += 2 {
			kind, extra := script[i]%6, script[i]/6
			la := uint64(script[i+1]%oracleLines) * oracleLine
			pa := la + uint64(extra)%oracleLine
			st := cache.State(1 + extra%3)
			var name, got, want string
			switch kind {
			case 0, 1:
				name = fmt.Sprintf("Access(write=%v)", kind == 1)
				got, want = fmt.Sprint(c.Access(pa, kind == 1)), fmt.Sprint(o.access(la, kind == 1))
			case 2:
				name = fmt.Sprintf("Insert(%v)", st)
				got, want = fmt.Sprint(c.Insert(pa, st)), fmt.Sprint(o.insert(la, st))
			case 3:
				name = "Invalidate"
				got = fmt.Sprint(c.Invalidate(pa))
				want = fmt.Sprint(o.update(la, func(cache.State) cache.State { return cache.Invalid }))
			case 4:
				name = "Downgrade"
				got = fmt.Sprint(c.Downgrade(pa))
				want = fmt.Sprint(o.update(la, func(s cache.State) cache.State { return min(s, cache.Shared) }))
			case 5:
				name = "MarkDirty"
				got = fmt.Sprint(c.MarkDirty(pa))
				want = fmt.Sprint(o.update(la, func(cache.State) cache.State { return cache.Modified }) != cache.Invalid)
			}
			if got != want {
				t.Fatalf("op %d, %s of %#x: cache.Cache %s, naive LRU %s", i/2, name, pa, got, want)
			}
			for l := uint64(0); l < oracleLines; l++ {
				if got, want := c.Lookup(l*oracleLine), o.lookup(l*oracleLine); got != want {
					t.Fatalf("after op %d (%s of %#x): line %#x is %v, naive LRU %v", i/2, name, pa, l*oracleLine, got, want)
				}
			}
		}
	})
}
