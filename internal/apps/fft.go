package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// FFTOpts parameterizes the FFT kernel.
type FFTOpts struct {
	// LogN is the log2 of the point count; an odd value rounds up,
	// since the data is a square matrix.
	LogN int
	// Procs is the thread count.
	Procs int
	// TLBBlocked selects the transpose blocking. False reproduces the
	// original SPLASH-2 recommendation (blocked for the primary data
	// cache), which takes "a TLB miss on every store during the
	// transpose phase"; true blocks the column loop so the transpose
	// write working set fits the 64-entry TLB (the paper's fix, worth
	// 14% on one processor and 16% on four).
	TLBBlocked bool
	// Prefetch enables the hand-inserted prefetches the SPLASH-2
	// binaries carry.
	Prefetch bool
}

// tlbBlockCols is the column-block width of the TLB-blocked transpose.
const tlbBlockCols = 32

type fftShared struct {
	n1    int // matrix dimension (sqrt of point count)
	x     emitter.Region
	trans emitter.Region
	umain emitter.Region
}

const complexBytes = 16

// FFT returns the radix-sqrt(n) six-step FFT kernel: transpose, row
// FFTs, transpose, row FFTs, transpose, as in SPLASH-2. The data is an
// n1 x n1 matrix of complex doubles, row-partitioned across processors
// with each strip placed locally.
func FFT(o FFTOpts) emitter.Program {
	o.LogN += o.LogN % 2
	n := 1 << uint(o.LogN)
	n1 := 1 << uint(o.LogN/2)
	variant := "cache-blocked"
	if o.TLBBlocked {
		variant = "tlb-blocked"
	}
	variant = fmt.Sprintf("%s n=%d", variant, n)
	if !o.Prefetch {
		variant += " noprefetch"
	}
	return emitter.Program{
		Name:    "fft",
		Variant: variant,
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			sh := &fftShared{n1: n1}
			matrixBytes := uint64(n) * complexBytes
			stripe := matrixBytes / uint64(o.Procs)
			place := emitter.Placement{Kind: emitter.PlaceBlocked, Stride: stripe}
			sh.x = as.AllocPageAligned("x", matrixBytes, place)
			sh.trans = as.AllocPageAligned("trans", matrixBytes, place)
			sh.umain = as.AllocPageAligned("umain", uint64(n1)*complexBytes,
				emitter.Placement{Kind: emitter.PlaceInterleaved})
			return sh
		},
		Body: func(t *emitter.Thread, shared any) {
			sh := shared.(*fftShared)
			fftBody(t, sh, o)
		},
	}
}

func fftAddr(r emitter.Region, n1, row, col int) uint64 {
	return r.Base + uint64(row*n1+col)*complexBytes
}

func fftBody(t *emitter.Thread, sh *fftShared, o FFTOpts) {
	n1 := sh.n1
	lo, hi := chunk(n1, t.ID, t.N)

	// Initialization: touch own strips (first touch places pages) and
	// the twiddle factors.
	rowBytes := uint64(n1) * complexBytes
	touchRegion(t, sh.x.Base+uint64(lo)*rowBytes, uint64(hi-lo)*rowBytes, 128)
	touchRegion(t, sh.trans.Base+uint64(lo)*rowBytes, uint64(hi-lo)*rowBytes, 128)
	if t.ID == 0 {
		touchRegion(t, sh.umain.Base, sh.umain.Size, 128)
	}

	t.Barrier(emitter.BarrierStart)
	transpose(t, sh, o, sh.x, sh.trans, lo, hi)
	t.Barrier(barPhase)
	rowFFTs(t, sh, o, sh.trans, lo, hi)
	t.Barrier(barPhase2)
	transpose(t, sh, o, sh.trans, sh.x, lo, hi)
	t.Barrier(barPhase3)
	rowFFTs(t, sh, o, sh.x, lo, hi)
	t.Barrier(barPhase4)
	transpose(t, sh, o, sh.x, sh.trans, lo, hi)
	t.Barrier(emitter.BarrierEnd)
}

// transpose writes dst[c][r] = src[r][c] for the thread's source rows
// [lo,hi), in 8-row blocks so that the 8 stores filling one destination
// cache line are adjacent (as the SPLASH-2 code does).
//
// In the cache-blocked (original) form the column loop spans the whole
// matrix, so the destination page working set is the full column count —
// far beyond the 64-entry TLB — and every destination line costs a TLB
// refill on top of its write miss. The TLB-blocked form tiles the column
// loop (width tlbBlockCols) so the destination pages stay resident.
func transpose(t *emitter.Thread, sh *fftShared, o FFTOpts, src, dst emitter.Region, lo, hi int) {
	n1 := sh.n1
	const rowBlock = 8 // complex elements per 128-byte destination line
	emitTile := func(rb, c0, c1 int) {
		rbEnd := min(rb+rowBlock, hi)
		for c := c0; c < c1; c++ {
			if o.Prefetch && c+1 < c1 {
				t.Prefetch(fftAddr(dst, n1, c+1, rb))
			}
			var last emitter.Val
			for r := rb; r < rbEnd; r++ {
				v := t.Load(fftAddr(src, n1, r, c), complexBytes, last, emitter.None)
				t.Store(fftAddr(dst, n1, c, r), complexBytes, v, emitter.None)
				last = t.IntALU(emitter.None, emitter.None) // index arithmetic
			}
		}
	}
	if !o.TLBBlocked {
		for rb := lo; rb < hi; rb += rowBlock {
			emitTile(rb, 0, n1)
		}
		return
	}
	for c0 := 0; c0 < n1; c0 += tlbBlockCols {
		c1 := min(c0+tlbBlockCols, n1)
		for rb := lo; rb < hi; rb += rowBlock {
			emitTile(rb, c0, c1)
		}
	}
}

// rowFFTs performs an in-place iterative radix-2 FFT on each owned row.
func rowFFTs(t *emitter.Thread, sh *fftShared, o FFTOpts, m emitter.Region, lo, hi int) {
	n1 := sh.n1
	stages := log2(n1)
	for r := lo; r < hi; r++ {
		for s := 0; s < stages; s++ {
			half := 1 << uint(s)
			for k := 0; k < n1; k += 2 * half {
				for j := 0; j < half; j++ {
					i0 := k + j
					i1 := i0 + half
					if o.Prefetch && j == 0 && k+2*half < n1 {
						t.Prefetch(fftAddr(m, n1, r, k+2*half))
					}
					a := t.Load(fftAddr(m, n1, r, i0), complexBytes, emitter.None, emitter.None)
					b := t.Load(fftAddr(m, n1, r, i1), complexBytes, emitter.None, emitter.None)
					w := t.Load(sh.umain.Base+uint64(j*(n1/(2*half)))*complexBytes, complexBytes, emitter.None, emitter.None)
					bw := t.FPMul(b, w)
					s0 := t.FPAdd(a, bw)
					s1 := t.FPAdd(a, bw)
					t.Store(fftAddr(m, n1, r, i0), complexBytes, s0, emitter.None)
					t.Store(fftAddr(m, n1, r, i1), complexBytes, s1, emitter.None)
					t.IntALU(emitter.None, emitter.None)
				}
			}
		}
	}
}
