package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// LUOpts parameterizes the blocked dense LU factorization.
type LUOpts struct {
	// N is the matrix dimension, rounded up to a multiple of the
	// block size. The paper's 768x768 matrix is ~2.3x its 2 MB L2, and
	// 160x160 doubles are ~1.6x the scaled 128 KB L2, preserving the
	// capacity relationship at tractable instruction counts.
	N int
	// Procs is the thread count.
	Procs int
	// Prefetch enables the hand-inserted prefetches.
	Prefetch bool
}

// luBlock is the block size (16, as in Table 2).
const luBlock = 16

type luShared struct {
	o      LUOpts
	nb     int // blocks per side
	pr, pc int // processor grid
	matrix emitter.Region
}

// LU returns the SPLASH-2-style blocked LU: the matrix is stored
// block-major (each B x B block contiguous) and blocks are 2D-scattered
// over a processor grid; per step the diagonal block is factored, the
// perimeter blocks are solved, and interior blocks receive a rank-B
// update. Dense FP dot products give the kernel abundant ILP — the
// reason MXS (and the real R10000) run it well and unit-latency Mipsy
// models need a 1.5x clock to keep up.
func LU(o LUOpts) emitter.Program {
	nb := (o.N + luBlock - 1) / luBlock
	o.N = nb * luBlock
	pr := 1
	for pr*pr < o.Procs {
		pr++
	}
	for o.Procs%pr != 0 {
		pr--
	}
	pc := o.Procs / pr
	variant := fmt.Sprintf("n=%d b=%d", o.N, luBlock)
	if !o.Prefetch {
		variant += " noprefetch"
	}
	return emitter.Program{
		Name:    "lu",
		Variant: variant,
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			sh := &luShared{o: o, nb: nb, pr: pr, pc: pc}
			sh.matrix = as.AllocPageAligned("matrix", uint64(o.N)*uint64(o.N)*8,
				emitter.Placement{Kind: emitter.PlaceFirstTouch})
			return sh
		},
		Body: func(t *emitter.Thread, shared any) {
			luBody(t, shared.(*luShared))
		},
	}
}

// owner maps block (bi,bj) onto the processor grid.
func (sh *luShared) owner(bi, bj int) int {
	return (bi%sh.pr)*sh.pc + bj%sh.pc
}

// blockAddr returns the address of element (i,j) of block (bi,bj) in the
// block-major layout.
func (sh *luShared) blockAddr(bi, bj, i, j int) uint64 {
	const b = luBlock
	blockBytes := uint64(b*b) * 8
	return sh.matrix.Base + uint64(bi*sh.nb+bj)*blockBytes + uint64(i*b+j)*8
}

func luBody(t *emitter.Thread, sh *luShared) {
	const b = luBlock
	nb := sh.nb

	// Initialization: each owner touches its blocks (first-touch
	// placement makes interior updates mostly local).
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			if sh.owner(bi, bj) != t.ID {
				continue
			}
			touchRegion(t, sh.blockAddr(bi, bj, 0, 0), uint64(b*b)*8, 128)
		}
	}

	t.Barrier(emitter.BarrierStart)
	for k := 0; k < nb; k++ {
		// Factor the diagonal block.
		if sh.owner(k, k) == t.ID {
			sh.factorDiag(t, k)
		}
		t.Barrier(barPhase)
		// Perimeter row and column solves.
		for bj := k + 1; bj < nb; bj++ {
			if sh.owner(k, bj) == t.ID {
				sh.solveBlock(t, k, k, bj)
			}
		}
		for bi := k + 1; bi < nb; bi++ {
			if sh.owner(bi, k) == t.ID {
				sh.solveBlock(t, k, bi, k)
			}
		}
		t.Barrier(barPhase2)
		// Interior rank-B updates: C(bi,bj) -= A(bi,k) * B(k,bj).
		for bi := k + 1; bi < nb; bi++ {
			for bj := k + 1; bj < nb; bj++ {
				if sh.owner(bi, bj) == t.ID {
					sh.updateBlock(t, bi, bj, k)
				}
			}
		}
		t.Barrier(barPhase3)
	}
	t.Barrier(emitter.BarrierEnd)
}

// factorDiag emits the unblocked factorization of diagonal block k.
func (sh *luShared) factorDiag(t *emitter.Thread, k int) {
	const b = luBlock
	for j := 0; j < b; j++ {
		pivot := t.Load(sh.blockAddr(k, k, j, j), 8, emitter.None, emitter.None)
		for i := j + 1; i < b; i++ {
			a := t.Load(sh.blockAddr(k, k, i, j), 8, emitter.None, emitter.None)
			l := t.FPDiv(a, pivot)
			t.Store(sh.blockAddr(k, k, i, j), 8, l, emitter.None)
			for jj := j + 1; jj < b; jj++ {
				u := t.Load(sh.blockAddr(k, k, j, jj), 8, emitter.None, emitter.None)
				m := t.FPMul(l, u)
				c := t.Load(sh.blockAddr(k, k, i, jj), 8, emitter.None, emitter.None)
				r := t.FPAdd(c, m)
				t.Store(sh.blockAddr(k, k, i, jj), 8, r, emitter.None)
			}
		}
	}
}

// solveBlock emits the triangular solve of block (bi,bj) against
// diagonal block k.
func (sh *luShared) solveBlock(t *emitter.Thread, k, bi, bj int) {
	const b = luBlock
	for j := 0; j < b; j++ {
		d := t.Load(sh.blockAddr(k, k, j, j), 8, emitter.None, emitter.None)
		for i := 0; i < b; i++ {
			a := t.Load(sh.blockAddr(bi, bj, i, j), 8, emitter.None, emitter.None)
			r := t.FPDiv(a, d)
			t.Store(sh.blockAddr(bi, bj, i, j), 8, r, emitter.None)
			t.IntALU(emitter.None, emitter.None)
		}
	}
}

// updateBlock emits C(bi,bj) -= A(bi,k) * B(k,bj), the dense dot-product
// kernel where nearly all of LU's time goes.
func (sh *luShared) updateBlock(t *emitter.Thread, bi, bj, k int) {
	const b = luBlock
	for i := 0; i < b; i++ {
		if sh.o.Prefetch {
			t.Prefetch(sh.blockAddr(bi, k, min(i+1, b-1), 0))
		}
		for j := 0; j < b; j++ {
			var acc emitter.Val
			for kk := 0; kk < b; kk++ {
				a := t.Load(sh.blockAddr(bi, k, i, kk), 8, emitter.None, emitter.None)
				bb := t.Load(sh.blockAddr(k, bj, kk, j), 8, emitter.None, emitter.None)
				m := t.FPMul(a, bb)
				acc = t.FPAdd(m, acc)
			}
			c := t.Load(sh.blockAddr(bi, bj, i, j), 8, emitter.None, emitter.None)
			r := t.FPAdd(c, acc)
			t.Store(sh.blockAddr(bi, bj, i, j), 8, r, emitter.None)
		}
	}
}
