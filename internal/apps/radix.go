package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// RadixOpts parameterizes the Radix-Sort kernel.
type RadixOpts struct {
	// Keys is the key count. The paper's 2M keys make the destination
	// array span ~2048 pages against the 64-entry TLB, and 256K keys
	// preserve a comfortably TLB-breaking 256 pages.
	Keys int
	// Radix is the digit size (power of two). The traditional value is
	// 256 ("run with a large radix to reduce overhead"), which incurs
	// "a pathological number of TLB misses" during the permutation;
	// the paper's fix reduces it to 32 (31% faster on one processor,
	// 34% on four).
	Radix int
	// Procs is the thread count.
	Procs int
	// Unplaced disables data placement, homing every page on node 0 —
	// the Figure 7 hotspot configuration.
	Unplaced bool
	// Verify checks the final array is sorted (Go-side assertion).
	Verify bool
}

// radixKeyBits bounds key values, giving the paper's 4:3 pass ratio
// between radix 32 and radix 256: passes =
// ceil(radixKeyBits/log2(Radix)).
const radixKeyBits = 20

type radixShared struct {
	o       RadixOpts
	keysR   emitter.Region
	keys2R  emitter.Region
	ghistR  emitter.Region
	keys    []uint32
	keys2   []uint32
	hist    [][]uint32 // [proc][digit] counts for the current pass
	offsets [][]uint32 // [proc][digit] global scatter bases
}

// Radix returns the parallel radix sort: per pass, a local histogram, a
// logarithmic parallel prefix exchange, and the permutation whose
// scattered, data-dependent stores are the kernel's defining traffic.
// Digit extraction is emitted as integer divide + remainder, the
// high-latency operations Mipsy's unit-latency model under-predicts
// (the §3.1.3 experiment: +5 cycles per multiply and +19 per divide
// moved SimOS-Mipsy-225 from 0.71 to 1.02 relative time).
func Radix(o RadixOpts) emitter.Program {
	variant := fmt.Sprintf("radix=%d n=%d", o.Radix, o.Keys)
	if o.Unplaced {
		variant += " unplaced"
	}
	if o.Verify {
		variant += " verify"
	}
	return emitter.Program{
		Name:    "radix",
		Variant: variant,
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			sh := &radixShared{o: o}
			bytes := uint64(o.Keys) * 4
			place := emitter.Placement{Kind: emitter.PlaceBlocked, Stride: bytes / uint64(o.Procs)}
			if o.Unplaced {
				place = emitter.Placement{Kind: emitter.PlaceOnNode, Node: 0}
			}
			sh.keysR = as.AllocPageAligned("keys", bytes, place)
			sh.keys2R = as.AllocPageAligned("keys2", bytes, place)
			sh.ghistR = as.AllocPageAligned("ghist", uint64(o.Procs*o.Radix)*4,
				emitter.Placement{Kind: emitter.PlaceFirstTouch})
			sh.keys = make([]uint32, o.Keys)
			sh.keys2 = make([]uint32, o.Keys)
			sh.hist = make([][]uint32, o.Procs)
			sh.offsets = make([][]uint32, o.Procs)
			for p := 0; p < o.Procs; p++ {
				sh.hist[p] = make([]uint32, o.Radix)
				sh.offsets[p] = make([]uint32, o.Radix)
			}
			return sh
		},
		Body: func(t *emitter.Thread, shared any) {
			radixBody(t, shared.(*radixShared))
		},
	}
}

func (sh *radixShared) keyAddr(i int) uint64  { return sh.keysR.Base + uint64(i)*4 }
func (sh *radixShared) key2Addr(i int) uint64 { return sh.keys2R.Base + uint64(i)*4 }
func (sh *radixShared) histAddr(p, d int) uint64 {
	return sh.ghistR.Base + uint64(p*sh.o.Radix+d)*4
}

func radixBody(t *emitter.Thread, sh *radixShared) {
	o := sh.o
	lo, hi := chunk(o.Keys, t.ID, t.N)
	logR := log2(o.Radix)
	passes := (radixKeyBits + logR - 1) / logR
	mask := uint32(o.Radix - 1)

	// Initialization: generate and store this thread's keys.
	var prev emitter.Val
	for i := lo; i < hi; i++ {
		sh.keys[i] = uint32(t.Rand()) & (1<<radixKeyBits - 1)
		t.Store(sh.keyAddr(i), 4, prev, emitter.None)
		prev = t.IntALU(emitter.None, emitter.None)
	}
	// Touch own histogram row (places ghist pages first-touch local).
	touchRegion(t, sh.histAddr(t.ID, 0), uint64(o.Radix)*4, 128)

	t.Barrier(emitter.BarrierStart)
	src, dst := sh.keys, sh.keys2
	srcAddr, dstAddr := sh.keyAddr, sh.key2Addr
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * logR)

		// Phase 1: local histogram over own chunk.
		h := sh.hist[t.ID]
		for d := range h {
			h[d] = 0
		}
		var hv emitter.Val
		for i := lo; i < hi; i++ {
			d := int((src[i] >> shift) & mask)
			h[d]++
			kv := t.Load(srcAddr(i), 4, emitter.None, emitter.None)
			q := t.IntDiv(kv, emitter.None) // key / radix^pass
			dv := t.IntALU(q, emitter.None) // ... mod radix
			cv := t.Load(sh.histAddr(t.ID, d), 4, dv, hv)
			hv = t.IntALU(cv, emitter.None)
			t.Store(sh.histAddr(t.ID, d), 4, hv, dv)
			t.IntOps(4) // index/bounds arithmetic, loop overhead
			t.Branch(dv)
		}
		t.Barrier(barPhase + uint32(pass%2))

		// Phase 2: parallel prefix. Every thread computes the global
		// offsets (cheap in Go); the emitted traffic is the butterfly
		// exchange of histogram rows.
		for d := 1; d < t.N; d <<= 1 {
			partner := t.ID ^ d
			if partner < t.N {
				var acc emitter.Val
				for r := 0; r < o.Radix; r++ {
					pv := t.Load(sh.histAddr(partner, r), 4, emitter.None, emitter.None)
					acc = t.IntALU(pv, acc)
					t.Store(sh.histAddr(t.ID, r), 4, acc, emitter.None)
				}
			}
		}
		off := sh.offsets[t.ID]
		base := uint32(0)
		for d := 0; d < o.Radix; d++ {
			for p := 0; p < t.N; p++ {
				if p == t.ID {
					off[d] = base
				}
				base += sh.hist[p][d]
			}
		}
		t.Barrier(barPhase3 + uint32(pass%2))

		// Phase 3: permutation. Scattered stores across the whole
		// destination array — the TLB-thrashing (radix > TLB entries)
		// and hotspot-sensitive phase.
		var rv emitter.Val
		for i := lo; i < hi; i++ {
			k := src[i]
			d := int((k >> shift) & mask)
			pos := off[d]
			off[d]++
			dst[pos] = k
			kv := t.Load(srcAddr(i), 4, emitter.None, emitter.None)
			q := t.IntMul(kv, emitter.None) // scaled rank/address computation
			dv := t.IntALU(q, emitter.None)
			cv := t.Load(sh.histAddr(t.ID, d), 4, dv, rv)
			t.Store(dstAddr(int(pos)), 4, kv, cv)
			rv = t.IntALU(cv, emitter.None)
			t.Store(sh.histAddr(t.ID, d), 4, rv, emitter.None)
			t.IntOps(4) // index/bounds arithmetic, loop overhead
			t.Branch(dv)
		}
		t.Barrier(barPhase5)

		src, dst = dst, src
		srcAddr, dstAddr = dstAddr, srcAddr
	}
	t.Barrier(emitter.BarrierEnd)

	if o.Verify && t.ID == 0 {
		for i := 1; i < o.Keys; i++ {
			if src[i-1] > src[i] {
				panic(fmt.Sprintf("radix: not sorted at %d: %d > %d", i, src[i-1], src[i]))
			}
		}
	}
}
