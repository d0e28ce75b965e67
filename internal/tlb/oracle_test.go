package tlb_test

import (
	"slices"
	"testing"

	"flashsim/internal/tlb"
)

// naiveTLB is the oracle: the resident pages, most recently used
// first, evicting from the back. It shares nothing with tlb.TLB.
type naiveTLB struct {
	entries int
	pages   []uint64
}

func (o *naiveTLB) access(vp uint64) bool {
	i := slices.Index(o.pages, vp)
	if i >= 0 {
		o.pages = slices.Delete(o.pages, i, i+1)
	} else if len(o.pages) == o.entries {
		o.pages = o.pages[:o.entries-1]
	}
	o.pages = slices.Insert(o.pages, 0, vp)
	return i >= 0
}

const oraclePages = 16

// FuzzTLBMatchesNaiveLRU runs a script of Access and Probe on tlb.TLB
// and on naiveTLB, and requires the same answer from both after every
// op and the same residency for every page either could hold.
// script[0] picks 1 to 8 entries; each later pair (op, page) is an
// Access of page page%16 when op is even, and only the Probe sweep,
// which must change nothing, when it is odd.
func FuzzTLBMatchesNaiveLRU(f *testing.F) {
	// Two entries: after 1, 2, 1 the least recent is 2, so LRU evicts
	// it for 3 where MRU or FIFO would evict 1.
	f.Add([]byte{1, 0, 1, 0, 2, 0, 1, 0, 3, 1, 1, 1, 2, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		n := 1 + int(script[0]%8)
		tl := tlb.New(tlb.Config{Entries: n})
		o := &naiveTLB{entries: n}
		for i := 1; i+1 < len(script); i += 2 {
			vp := uint64(script[i+1] % oraclePages)
			if script[i]%2 == 0 {
				if got, want := tl.Access(vp), o.access(vp); got != want {
					t.Fatalf("op %d, Access(%d): tlb.TLB hit %v, naive LRU %v", i/2, vp, got, want)
				}
			}
			for p := uint64(0); p < oraclePages; p++ {
				if got, want := tl.Probe(p), slices.Contains(o.pages, p); got != want {
					t.Fatalf("after op %d: page %d resident %v, naive LRU %v", i/2, p, got, want)
				}
			}
		}
	})
}
