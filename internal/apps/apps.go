// Package apps implements the four SPLASH-2 kernels of the study — FFT,
// Radix-Sort, LU, and Ocean — as instrumented programs: the real
// algorithms, written against the emitter API so that every load, store,
// and arithmetic operation appears in the instruction stream with true
// data dependences and real (data-dependent, where applicable) virtual
// addresses.
//
// The paper's application-level experiments are reproduced as variants:
//
//   - FFT blocked for the cache (a TLB miss on every store during the
//     transpose phase) vs. blocked for the TLB (§3.1.2).
//   - Radix-Sort with radix 256 ("a pathological number of TLB misses")
//     vs. radix 32.
//   - Radix-Sort with data placement disabled ("unplaced": every page on
//     node 0, the Figure 7 hotspot).
//
// Each kernel takes its options as given. Defaults and bounds live in
// the workload registry (internal/workload), whose full-scale sizes are
// 1/16 of Table 2, matching the 1/16-scale cache geometry of
// machine.ScaledCaches (documented in EXPERIMENTS.md).
package apps

import (
	"flashsim/internal/emitter"
)

// Internal barrier ids (>= 16; 1 and 2 delimit the timed section).
const (
	barPhase uint32 = 16 + iota
	barPhase2
	barPhase3
	barPhase4
	barPhase5
)

// touchRegion emits per-line stores over [base, base+size) — the
// canonical initialization loop, establishing first touch (and hence
// page placement and Solo frame order).
func touchRegion(t *emitter.Thread, base, size, step uint64) {
	var prev emitter.Val
	for off := uint64(0); off < size; off += step {
		t.Store(base+off, uint32(step), prev, emitter.None)
		prev = t.IntALU(emitter.None, emitter.None)
	}
}

// chunk returns the [lo,hi) slice of n items for thread id of nt.
func chunk(n, id, nt int) (lo, hi int) {
	per := n / nt
	rem := n % nt
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return
}

// log2 returns floor(log2(n)); n must be a power of two in callers.
func log2(n int) int {
	k := 0
	for 1<<uint(k+1) <= n {
		k++
	}
	return k
}
