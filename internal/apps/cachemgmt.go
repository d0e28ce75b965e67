package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// CacheMgmtOpts parameterizes the cache-management microworkload.
type CacheMgmtOpts struct {
	// Lines is the number of buffer lines written and flushed per
	// round.
	Lines int
	// Rounds repeats the produce/flush cycle.
	Rounds int
	// Procs is the thread count.
	Procs int
}

// CacheMgmt is a driver-style kernel: fill a buffer, then CACHE
// (hit-writeback-invalidate) every line of it before handing it to a
// device — the usage pattern that exercised the historical MXS bug in
// which a CACHE instruction on a dirty line never signaled completion
// and the processor stalled for ~a million cycles until a timer
// interrupt retried it.
func CacheMgmt(o CacheMgmtOpts) emitter.Program {
	const lineBytes = 128
	return emitter.Program{
		Name:    "cachemgmt",
		Variant: fmt.Sprintf("lines=%d rounds=%d", o.Lines, o.Rounds),
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			return as.AllocPageAligned("iobuf", uint64(o.Lines)*lineBytes,
				emitter.Placement{Kind: emitter.PlaceFirstTouch})
		},
		Body: func(t *emitter.Thread, shared any) {
			buf := shared.(emitter.Region)
			lo, hi := chunk(o.Lines, t.ID, t.N)
			t.Barrier(emitter.BarrierStart)
			for r := 0; r < o.Rounds; r++ {
				var prev emitter.Val
				for i := lo; i < hi; i++ {
					t.Store(buf.Base+uint64(i)*lineBytes, 8, prev, emitter.None)
					prev = t.IntALU(emitter.None, emitter.None)
				}
				for i := lo; i < hi; i++ {
					t.CacheOp(buf.Base+uint64(i)*lineBytes, 0)
					t.IntOps(2)
				}
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}
