package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// OLTPOpts parameterizes the transaction-mix kernel.
type OLTPOpts struct {
	// Txns is the transaction count per thread (default 1024).
	Txns int
	// Rows is the table size in rows (default 32768; 128-byte rows,
	// 4 MB of row heap).
	Rows int
	// Ops is the row operations per transaction (default 8).
	Ops int
	// ReadPct is the percentage of row operations that are reads
	// (default 80; the rest write the row under its bucket lock).
	ReadPct int
	// SkewPct is the percentage of operations directed at the popular
	// 1/64 slice of the key space (default 60) — skewed key
	// popularity, the contention knob.
	SkewPct int
	// Procs is the thread count.
	Procs int
}

func (o *OLTPOpts) norm() {
	if o.Txns == 0 {
		o.Txns = 1024
	}
	if o.Rows == 0 {
		o.Rows = 32768
	}
	if o.Rows < 256 {
		o.Rows = 256
	}
	if o.Ops == 0 {
		o.Ops = 8
	}
	if o.ReadPct == 0 {
		o.ReadPct = 80
	}
	if o.ReadPct < 0 {
		o.ReadPct = 0
	}
	if o.SkewPct == 0 {
		o.SkewPct = 60
	}
	if o.SkewPct < 0 {
		o.SkewPct = 0
	}
	if o.Procs == 0 {
		o.Procs = 1
	}
}

const (
	oltpRowBytes  = 128 // one row = one cache line pair
	oltpNodeBytes = 64  // one index node = one line
	oltpFanout    = 64  // index fanout per level
	oltpLocks     = 64  // row bucket locks
	oltpLockID    = 192 // lock id base (disjoint from barnes/ocean ids)
	oltpChase     = 2   // version-chain hops per row operation
)

type oltpShared struct {
	index emitter.Region
	rows  emitter.Region
	leaf  emitter.Region
	next  []uint32 // version-chain permutation over rows
	inner int      // inner index nodes (level-1)
}

// OLTP returns an OLTP-style pointer-chasing transaction mix: each
// transaction walks a three-level index (root, inner node, leaf), then
// chases the row's version chain — dependent loads whose addresses come
// off the previous load, the access pattern the calibrated dependent-
// loads microbenchmark prices — and either reads the row or rewrites it
// under its bucket lock. SkewPct concentrates popularity, ReadPct sets
// the read/write mix, so lock contention and directory sharing are both
// dialable from the registry.
func OLTP(o OLTPOpts) emitter.Program {
	o.norm()
	return emitter.Program{
		Name:    "oltp",
		Variant: fmt.Sprintf("rows=%d r/w=%d/%d skew=%d%%", o.Rows, o.ReadPct, 100-o.ReadPct, o.SkewPct),
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			sh := &oltpShared{}
			sh.inner = (o.Rows + oltpFanout*oltpFanout - 1) / (oltpFanout * oltpFanout)
			if sh.inner < 1 {
				sh.inner = 1
			}
			leaves := (o.Rows + oltpFanout - 1) / oltpFanout
			sh.index = as.AllocPageAligned("index", uint64(1+sh.inner)*oltpNodeBytes,
				emitter.Placement{Kind: emitter.PlaceInterleaved})
			sh.leaf = as.AllocPageAligned("leaves", uint64(leaves)*oltpNodeBytes,
				emitter.Placement{Kind: emitter.PlaceInterleaved})
			sh.rows = as.AllocPageAligned("rows", uint64(o.Rows)*oltpRowBytes,
				emitter.Placement{Kind: emitter.PlaceFirstTouch})
			// The version-chain permutation: row i's predecessor
			// version lives at next[i], a fixed pseudo-random shuffle.
			sh.next = make([]uint32, o.Rows)
			rng := uint64(0x853C49E6748FEA9B)
			for i := range sh.next {
				sh.next[i] = uint32(i)
			}
			for i := len(sh.next) - 1; i > 0; i-- {
				rng ^= rng >> 12
				rng ^= rng << 25
				rng ^= rng >> 27
				j := int((rng * 0x2545F4914F6CDD1D >> 8) % uint64(i+1))
				sh.next[i], sh.next[j] = sh.next[j], sh.next[i]
			}
			return sh
		},
		Body: func(t *emitter.Thread, shared any) {
			sh := shared.(*oltpShared)
			rowAddr := func(r uint32) uint64 {
				return sh.rows.Base + uint64(r)*oltpRowBytes
			}
			// Initialization: threads first-touch disjoint row stripes
			// (the shared-nothing warm-up of a partitioned database),
			// spreading the row heap across all nodes.
			lo, hi := chunk(o.Rows, t.ID, t.N)
			touchRegion(t, rowAddr(uint32(lo)), uint64(hi-lo)*oltpRowBytes, oltpRowBytes)

			hot := uint64(o.Rows) / 64
			if hot == 0 {
				hot = 1
			}
			t.Barrier(emitter.BarrierStart)
			for txn := 0; txn < o.Txns; txn++ {
				// Begin: transaction bookkeeping.
				t.IntOps(4)
				var commit emitter.Val
				for op := 0; op < o.Ops; op++ {
					r := t.Rand()
					var row uint32
					if r%100 < uint64(o.SkewPct) {
						row = uint32((r >> 8) % hot)
					} else {
						row = uint32((r >> 8) % uint64(o.Rows))
					}
					// Index walk: root -> inner -> leaf, each load's
					// address produced by the previous one.
					p := t.Load(sh.index.Base, 8, commit, emitter.None)
					inner := uint64(row) / (oltpFanout * oltpFanout) % uint64(sh.inner)
					p = t.Load(sh.index.Base+(1+inner)*oltpNodeBytes, 8, p, emitter.None)
					leaf := uint64(row) / oltpFanout
					p = t.Load(sh.leaf.Base+leaf*oltpNodeBytes, 8, p, emitter.None)
					// Version-chain chase through the row heap.
					cur := row
					for hop := 0; hop < oltpChase; hop++ {
						p = t.Load(rowAddr(cur), 8, p, emitter.None)
						cur = sh.next[cur]
					}
					if r>>16%100 < uint64(o.ReadPct) {
						// Read: pull the payload, fold into the result.
						v := t.Load(rowAddr(cur)+8, 32, p, emitter.None)
						commit = t.IntALU(v, commit)
					} else {
						// Write: rewrite the row under its bucket lock.
						lock := oltpLockID + uint32(cur)%oltpLocks
						t.Lock(lock)
						v := t.Load(rowAddr(cur)+8, 32, p, emitter.None)
						nv := t.IntALU(v, commit)
						t.Store(rowAddr(cur)+8, 32, nv, emitter.None)
						t.Unlock(lock)
						commit = nv
					}
					t.IntOps(3)
					t.Branch(commit)
				}
				// Commit: serialize the log record (two line writes in
				// the thread's own stripe).
				logRow := uint32(lo) + uint32(txn)%uint32(max(hi-lo, 1))
				t.Store(rowAddr(logRow)+64, 32, commit, emitter.None)
				t.IntMul(commit, emitter.None)
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}
