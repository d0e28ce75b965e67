package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// GUPSOpts parameterizes the random-update kernel.
type GUPSOpts struct {
	// LogTable is log2 of the table length in 8-byte words (18 is
	// 256K words = 2 MB, 512 pages against the 64-entry TLB).
	LogTable int
	// Updates is the read-modify-write count per thread.
	Updates int
	// HotPct is the percentage of updates directed at the hot 1/64
	// slice of the table — the "hotspot" in random-update hotspot. 0
	// is classic uniform GUPS.
	HotPct int
	// Procs is the thread count.
	Procs int
	// Unplaced homes every table page on node 0 (the Figure 7 hotspot
	// placement) instead of first-touch distribution.
	Unplaced bool
}

// GUPS returns a GUPS-style random-update kernel: each thread performs
// Updates independent read-xor-write cycles at pseudo-random table
// words, with HotPct percent of them concentrated on the hot 1/64
// slice. Nearly every access misses the caches and, at table sizes
// beyond 64 pages, the TLB; with Unplaced every miss is additionally a
// remote access to node 0's memory — the pure memory-system stressor
// among the registered workloads.
func GUPS(o GUPSOpts) emitter.Program {
	words := uint64(1) << o.LogTable
	hotWords := words / 64
	variant := fmt.Sprintf("2^%d words updates=%d", o.LogTable, o.Updates)
	if o.HotPct > 0 {
		variant += fmt.Sprintf(" hot=%d%%", o.HotPct)
	}
	if o.Unplaced {
		variant += " unplaced"
	}
	place := emitter.Placement{Kind: emitter.PlaceFirstTouch}
	if o.Unplaced {
		place = emitter.Placement{Kind: emitter.PlaceOnNode, Node: 0}
	}
	return emitter.Program{
		Name:    "gups",
		Variant: variant,
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			return as.AllocPageAligned("table", words*8, place)
		},
		Body: func(t *emitter.Thread, shared any) {
			table := shared.(emitter.Region)
			// Initialization: each thread first-touches a contiguous
			// stripe, spreading the table's pages across all nodes
			// (unless Unplaced pins them to node 0).
			lo, hi := chunk(int(words), t.ID, t.N)
			touchRegion(t, table.Base+uint64(lo)*8, uint64(hi-lo)*8, 64)

			t.Barrier(emitter.BarrierStart)
			var prev emitter.Val
			for i := 0; i < o.Updates; i++ {
				r := t.Rand()
				var idx uint64
				if o.HotPct > 0 && r%100 < uint64(o.HotPct) {
					idx = (r >> 8) % hotWords
				} else {
					idx = (r >> 8) % words
				}
				addr := table.Base + idx*8
				// The RMW cycle: load, xor with the running value,
				// store — the store depends on the load.
				v := t.Load(addr, 8, prev, emitter.None)
				x := t.IntALU(v, prev)
				t.Store(addr, 8, x, emitter.None)
				prev = x
				// Loop overhead: index generation and bounds check.
				t.IntOps(2)
				t.Branch(x)
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}
