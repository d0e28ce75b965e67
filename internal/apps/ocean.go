package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// OceanOpts parameterizes the Ocean kernel.
type OceanOpts struct {
	// N is the interior grid dimension. The paper's 514x514 grids
	// are ~2 MB each against a 2 MB L2, and (130)^2 doubles are
	// ~135 KB against the scaled 128 KB L2.
	N int
	// Grids is the number of simultaneously live grids (real Ocean
	// keeps ~25).
	Grids int
	// Iters is the number of outer time steps.
	Iters int
	// Procs is the thread count.
	Procs int
	// Prefetch enables hand-inserted prefetches.
	Prefetch bool
}

type oceanShared struct {
	o     OceanOpts
	dim   int // N+2 including boundary
	grids []emitter.Region
}

// sweepPlan lists the (srcA, srcB, dst) grid triples each time step
// touches, echoing real Ocean's sequence of laplacian/jacobi/relax
// passes over its many state grids. The relax flag adds a per-point
// FP divide — Ocean "executes many high-latency floating point
// operations", the second half of the Mipsy unit-latency error.
type sweepSpec struct {
	a, b, dst int
	relax     bool
}

// sweepPlan mixes adjacent-grid triples with same-parity (stride-2)
// triples, as real Ocean's pass sequence does over its ~25 state grids.
// The same-parity triples are the coloring probe: under Solo's
// arena-aligned allocator all even (and all odd) grids share a physical
// color phase, so those sweeps run three same-set streams against the
// two-way caches; under IRIX's virtual coloring the phases differ and
// no sweep conflicts.
func sweepPlan(grids int) []sweepSpec {
	plan := []sweepSpec{
		{0, 1, 2, false},
		{2, 4, 6, false}, // same parity
		{1, 3, 5, true},  // same parity
		{6, 7, 8, false},
		{8, 9, 10, false},
		{10, 11, 12, true},
		{3, 11, 13, false},
	}
	for i := range plan {
		plan[i].a %= grids
		plan[i].b %= grids
		plan[i].dst %= grids
	}
	return plan
}

// Ocean returns the red-black/stencil kernel standing in for SPLASH-2
// Ocean: many same-shaped grids, band-partitioned, swept with 5-point
// stencils that read two grids and write a third, with nearest-neighbor
// communication at band boundaries and a lock-protected global residual
// reduction per time step.
//
// Ocean is the study's page-coloring probe: each grid is a separate
// region, so under Solo's aligned sequential allocator every grid shares
// a color phase and a 3-grid sweep thrashes the 2-way L2 on one
// processor (the 3x miss-rate misprediction of §3.1.2), while IRIX's
// virtual coloring spreads the phases.
func Ocean(o OceanOpts) emitter.Program {
	variant := fmt.Sprintf("n=%d grids=%d iters=%d", o.N, o.Grids, o.Iters)
	if !o.Prefetch {
		variant += " noprefetch"
	}
	return emitter.Program{
		Name:    "ocean",
		Variant: variant,
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			sh := &oceanShared{o: o, dim: o.N + 2}
			bytes := uint64(sh.dim) * uint64(sh.dim) * 8
			for g := 0; g < o.Grids; g++ {
				sh.grids = append(sh.grids, as.AllocPageAligned(
					fmt.Sprintf("grid%02d", g), bytes,
					emitter.Placement{Kind: emitter.PlaceFirstTouch}))
			}
			return sh
		},
		Body: func(t *emitter.Thread, shared any) {
			oceanBody(t, shared.(*oceanShared))
		},
	}
}

func (sh *oceanShared) addr(g, i, j int) uint64 {
	return sh.grids[g].Base + (uint64(i)*uint64(sh.dim)+uint64(j))*8
}

func oceanBody(t *emitter.Thread, sh *oceanShared) {
	o := sh.o
	lo, hi := chunk(o.N, t.ID, t.N) // interior rows [1..N]
	lo++
	hi++

	// Initialization: grid-by-grid (the order that gives Solo its
	// aligned, phase-identical frames), each thread touching its band.
	rowBytes := uint64(sh.dim) * 8
	for g := range sh.grids {
		start := sh.addr(g, lo-1, 0)
		end := sh.addr(g, hi, 0)
		if t.ID == t.N-1 {
			end = sh.addr(g, hi+1, 0) // bottom boundary row
		}
		touchRegion(t, start, end-start, 128)
		_ = rowBytes
	}

	t.Barrier(emitter.BarrierStart)
	plan := sweepPlan(o.Grids)
	for it := 0; it < o.Iters; it++ {
		for si, sw := range plan {
			sh.sweep(t, sw, lo, hi)
			t.Barrier(barPhase + uint32(si%3))
		}
		// Lock-protected global residual accumulation.
		r := t.Load(sh.addr(plan[0].dst, lo, 1), 8, emitter.None, emitter.None)
		s := t.FPAdd(r, emitter.None)
		t.Lock(1)
		g := t.Load(sh.addr(0, 0, 0), 8, s, emitter.None)
		g2 := t.FPAdd(g, s)
		t.Store(sh.addr(0, 0, 0), 8, g2, emitter.None)
		t.Unlock(1)
		t.Barrier(barPhase5)
	}
	t.Barrier(emitter.BarrierEnd)
}

// sweep emits one stencil pass over the thread's band: for each interior
// point, a 5-point stencil on grid a, a point read of grid b, and a
// store to dst.
func (sh *oceanShared) sweep(t *emitter.Thread, sw sweepSpec, lo, hi int) {
	n := sh.o.N
	for i := lo; i < hi; i++ {
		var carry emitter.Val
		for j := 1; j <= n; j++ {
			if sh.o.Prefetch && j%4 == 1 && j+4 <= n {
				t.Prefetch(sh.addr(sw.a, i, j+4))
			}
			c := t.Load(sh.addr(sw.a, i, j), 8, emitter.None, emitter.None)
			up := t.Load(sh.addr(sw.a, i-1, j), 8, emitter.None, emitter.None)
			dn := t.Load(sh.addr(sw.a, i+1, j), 8, emitter.None, emitter.None)
			lf := t.Load(sh.addr(sw.a, i, j-1), 8, emitter.None, emitter.None)
			rt := t.Load(sh.addr(sw.a, i, j+1), 8, emitter.None, emitter.None)
			s1 := t.FPAdd(up, dn)
			s2 := t.FPAdd(lf, rt)
			s3 := t.FPAdd(s1, s2)
			bv := t.Load(sh.addr(sw.b, i, j), 8, emitter.None, emitter.None)
			m := t.FPMul(s3, bv)
			v := t.FPAdd(m, c)
			if sw.relax {
				v = t.FPDiv(v, s3)
			}
			t.Store(sh.addr(sw.dst, i, j), 8, v, carry)
			carry = v
		}
	}
}
