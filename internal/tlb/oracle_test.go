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

// FuzzTLBMatchesNaiveLRU runs a script of Access and Probe on tlb.TLB
// and on naiveTLB, and requires the same answer from both after every
// op and the same resident set. script[0] picks 1 to 128 entries; each
// later pair (op, page) is an Access of page (0 to 255) when op is
// even, and only the residency check, which must change nothing, when
// it is odd. 256 pages over at most 128 entries both evict and put
// pages 64 apart (vp and vp^64) in the TLB at once, and the check
// probes each accessed page's vp^64 as well.
func FuzzTLBMatchesNaiveLRU(f *testing.F) {
	// Two entries: after 1, 2, 1 the least recent is 2, so LRU evicts
	// it for 3 where MRU or FIFO would evict 1.
	f.Add([]byte{1, 0, 1, 0, 2, 0, 1, 0, 3, 1, 1, 1, 2, 0, 2, 0, 1})
	// Two entries holding 1 and 65 at once, each hit after the other;
	// 2 then evicts 1, and 1 evicts 65.
	f.Add([]byte{1, 0, 1, 0, 65, 0, 1, 0, 65, 0, 2, 1, 65, 0, 1, 1, 65, 0, 65})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		n := 1 + int(script[0]%128)
		tl := tlb.New(tlb.Config{Entries: n})
		o := &naiveTLB{entries: n}
		for i := 1; i+1 < len(script); i += 2 {
			vp := uint64(script[i+1])
			if script[i]%2 == 0 {
				if got, want := tl.Access(vp), o.access(vp); got != want {
					t.Fatalf("op %d, Access(%d): tlb.TLB hit %v, naive LRU %v", i/2, vp, got, want)
				}
			}
			if got, want := tl.Resident(), len(o.pages); got != want {
				t.Fatalf("after op %d: %d pages resident, naive LRU %d", i/2, got, want)
			}
			for _, p := range append([]uint64{vp, vp ^ 64}, o.pages...) {
				if got, want := tl.Probe(p), slices.Contains(o.pages, p); got != want {
					t.Fatalf("after op %d: page %d resident %v, naive LRU %v", i/2, p, got, want)
				}
			}
		}
	})
}
