package apps

import (
	"fmt"

	"flashsim/internal/emitter"
)

// BarnesOpts parameterizes the Barnes-Hut n-body kernel.
type BarnesOpts struct {
	// Bodies is the particle count (default 1024; SPLASH-2's 16K
	// bodies scaled by the study's 1/16 rule).
	Bodies int
	// Steps is the number of time steps (default 4).
	Steps int
	// ThetaPct is the opening angle threshold as a percentage
	// (default 50, i.e. theta = 0.5): a cell whose size/distance ratio
	// is below theta is approximated by its center of mass instead of
	// being opened.
	ThetaPct int
	// Procs is the thread count.
	Procs int
}

func (o *BarnesOpts) norm() {
	if o.Bodies == 0 {
		o.Bodies = 1024
	}
	if o.Steps == 0 {
		o.Steps = 4
	}
	if o.ThetaPct == 0 {
		o.ThetaPct = 50
	}
	if o.Procs == 0 {
		o.Procs = 1
	}
}

const (
	bodyBytes = 64  // position, velocity, mass per body
	cellBytes = 64  // children pointers, center of mass, total mass
	bhLocks   = 32  // hashed cell-insertion locks
	bhLockID  = 128 // lock id base (disjoint from other app lock ids)
)

// bhCell is one octree node of the Go-side oracle tree.
type bhCell struct {
	mid  [3]float64 // spatial center
	half float64    // half-width
	kids [8]int     // child cell index, -1 = empty
	body int        // body index when leaf, -1 otherwise
	com  [3]float64 // center of mass
	mass float64
}

// bhTree is the deterministic octree rebuilt between steps. The tree is
// an oracle: its shape decides which cell addresses the threads emit,
// but the structure itself lives outside the simulated address space's
// data (only its cell slots are backed by the "tree" region).
type bhTree struct {
	cells []bhCell
}

func (t *bhTree) newCell(mid [3]float64, half float64) int {
	c := bhCell{mid: mid, half: half, body: -1}
	for i := range c.kids {
		c.kids[i] = -1
	}
	t.cells = append(t.cells, c)
	return len(t.cells) - 1
}

// octant returns which child octant of cell c position p falls in.
func (t *bhTree) octant(c int, p [3]float64) int {
	o := 0
	for d := 0; d < 3; d++ {
		if p[d] >= t.cells[c].mid[d] {
			o |= 1 << d
		}
	}
	return o
}

func (t *bhTree) childMid(c, o int) ([3]float64, float64) {
	half := t.cells[c].half / 2
	mid := t.cells[c].mid
	for d := 0; d < 3; d++ {
		if o&(1<<d) != 0 {
			mid[d] += half
		} else {
			mid[d] -= half
		}
	}
	return mid, half
}

// insert adds body b at position p below cell c (classic Barnes-Hut:
// one body per leaf, split on collision).
func (t *bhTree) insert(c, b int, pos [][3]float64) {
	for {
		cell := &t.cells[c]
		if cell.body >= 0 {
			// Occupied leaf: push the resident body down, keep going.
			old := cell.body
			cell.body = -1
			if t.cells[c].half < 1e-12 {
				// Degenerate coincident positions: drop into octant 0.
				cell.body = old
				return
			}
			oo := t.octant(c, pos[old])
			mid, half := t.childMid(c, oo)
			k := t.newCell(mid, half)
			t.cells[k].body = old
			t.cells[c].kids[oo] = k
		}
		o := t.octant(c, pos[b])
		if t.cells[c].kids[o] < 0 {
			mid, half := t.childMid(c, o)
			k := t.newCell(mid, half)
			t.cells[k].body = b
			t.cells[c].kids[o] = k
			return
		}
		c = t.cells[c].kids[o]
	}
}

// summarize computes centers of mass bottom-up (post-order).
func (t *bhTree) summarize(c int, pos [][3]float64) (com [3]float64, mass float64) {
	cell := &t.cells[c]
	if cell.body >= 0 {
		cell.com = pos[cell.body]
		cell.mass = 1
		return cell.com, cell.mass
	}
	for _, k := range cell.kids {
		if k < 0 {
			continue
		}
		kc, km := t.summarize(k, pos)
		for d := 0; d < 3; d++ {
			com[d] += kc[d] * km
		}
		mass += km
	}
	if mass > 0 {
		for d := 0; d < 3; d++ {
			com[d] /= mass
		}
	}
	cell.com, cell.mass = com, mass
	return com, mass
}

// path returns the cell indices from the root to body b's leaf.
func (t *bhTree) path(b int, pos [][3]float64, out []int) []int {
	c := 0
	for {
		out = append(out, c)
		cell := &t.cells[c]
		if cell.body == b {
			return out
		}
		k := cell.kids[t.octant(c, pos[b])]
		if k < 0 {
			return out
		}
		c = k
	}
}

func buildBH(pos [][3]float64) *bhTree {
	t := &bhTree{cells: make([]bhCell, 0, 2*len(pos)+8)}
	t.newCell([3]float64{0.5, 0.5, 0.5}, 0.5)
	for b := range pos {
		if b == 0 {
			t.cells[0].body = 0
			continue
		}
		t.insert(0, b, pos)
	}
	t.summarize(0, pos)
	return t
}

type barnesShared struct {
	pos    [][3]float64
	vel    [][3]float64
	bodies emitter.Region
	treeR  emitter.Region
	tree   *bhTree
}

// cellAddr maps a Go-side cell index onto the tree region (modulo the
// region's slot count, so unbounded tree growth cannot escape it).
func (sh *barnesShared) cellAddr(c int) uint64 {
	slots := sh.treeR.Size / cellBytes
	return sh.treeR.Base + uint64(c)%slots*cellBytes
}

func (sh *barnesShared) bodyAddr(b int) uint64 {
	return sh.bodies.Base + uint64(b)*bodyBytes
}

// Barnes returns a Barnes-Hut-style octree n-body kernel: per time
// step, every thread inserts its bodies into the shared octree (short
// pointer walks under hashed cell locks), computes forces by a
// data-dependent multipole-acceptance tree walk, and integrates its
// strip of bodies. The octree is rebuilt between steps from the
// deterministically updated positions, so the emitted streams are a
// pure function of (Bodies, Steps, ThetaPct, Procs) — the irregular,
// pointer-chasing sharing pattern the array kernels (FFT, LU, Ocean)
// never produce.
func Barnes(o BarnesOpts) emitter.Program {
	o.norm()
	theta := float64(o.ThetaPct) / 100
	return emitter.Program{
		Name:    "barnes",
		Variant: fmt.Sprintf("n=%d steps=%d", o.Bodies, o.Steps),
		Threads: o.Procs,
		Setup: func(as *emitter.AddressSpace) any {
			sh := &barnesShared{}
			per := (o.Bodies + o.Procs - 1) / o.Procs
			sh.bodies = as.AllocPageAligned("bodies", uint64(o.Bodies)*bodyBytes,
				emitter.Placement{Kind: emitter.PlaceBlocked, Stride: uint64(per) * bodyBytes})
			sh.treeR = as.AllocPageAligned("tree", uint64(4*o.Bodies+64)*cellBytes,
				emitter.Placement{Kind: emitter.PlaceInterleaved})
			sh.pos = make([][3]float64, o.Bodies)
			sh.vel = make([][3]float64, o.Bodies)
			rng := uint64(0x9E3779B97F4A7C15)
			unit := func() float64 {
				rng ^= rng >> 12
				rng ^= rng << 25
				rng ^= rng >> 27
				return float64(rng*0x2545F4914F6CDD1D>>11) / float64(uint64(1)<<53)
			}
			for b := range sh.pos {
				for d := 0; d < 3; d++ {
					sh.pos[b][d] = unit()
					sh.vel[b][d] = (unit() - 0.5) * 1e-3
				}
			}
			sh.tree = buildBH(sh.pos)
			return sh
		},
		Body: func(t *emitter.Thread, shared any) {
			sh := shared.(*barnesShared)
			lo, hi := chunk(o.Bodies, t.ID, t.N)

			// First touch of the owned body strip (placement is blocked,
			// so this also warms the local pages).
			touchRegion(t, sh.bodyAddr(lo), uint64(hi-lo)*bodyBytes, bodyBytes)

			t.Barrier(emitter.BarrierStart)
			pathBuf := make([]int, 0, 64)
			acc := make([][3]float64, hi-lo)
			for step := 0; step < o.Steps; step++ {
				// Phase 1: tree construction. Each thread walks its
				// bodies' root-to-leaf paths in the (already consistent)
				// oracle tree, emitting the loads and locked insert
				// store a concurrent builder performs.
				for b := lo; b < hi; b++ {
					pathBuf = sh.tree.path(b, sh.pos, pathBuf[:0])
					ptr := t.Load(sh.bodyAddr(b), 16, emitter.None, emitter.None)
					leaf := pathBuf[len(pathBuf)-1]
					for _, c := range pathBuf {
						ptr = t.Load(sh.cellAddr(c), 8, ptr, emitter.None)
					}
					lock := bhLockID + uint32(leaf)%bhLocks
					t.Lock(lock)
					t.Store(sh.cellAddr(leaf), 16, ptr, emitter.None)
					t.Unlock(lock)
				}
				t.Barrier(barPhase)

				// Phase 2: force computation — the multipole-acceptance
				// walk. Visiting a cell loads its center of mass through
				// the pointer chain; accepted cells contribute a
				// gravity kernel's worth of floating point.
				for b := lo; b < hi; b++ {
					var a [3]float64
					p := sh.pos[b]
					ptr := t.Load(sh.bodyAddr(b), 16, emitter.None, emitter.None)
					var walk func(c int)
					walk = func(c int) {
						cell := &sh.tree.cells[c]
						if cell.mass == 0 {
							return
						}
						dx := cell.com[0] - p[0]
						dy := cell.com[1] - p[1]
						dz := cell.com[2] - p[2]
						r2 := dx*dx + dy*dy + dz*dz + 1e-9
						ptr = t.Load(sh.cellAddr(c), 16, ptr, emitter.None)
						if cell.body == b {
							return
						}
						if cell.body >= 0 || (2*cell.half)*(2*cell.half) < theta*theta*r2 {
							// Accept: p2p or cell-approximated gravity.
							d1 := t.FPMul(ptr, emitter.None) // r^2 partials
							d2 := t.FPAdd(d1, emitter.None)
							d3 := t.FPDiv(d2, emitter.None) // 1/r^3
							d4 := t.FPMul(d3, d1)
							t.FPAdd(d4, d2)
							inv := cell.mass / (r2 * sqrt(r2))
							a[0] += dx * inv
							a[1] += dy * inv
							a[2] += dz * inv
							return
						}
						for _, k := range cell.kids {
							if k >= 0 {
								walk(k)
							}
						}
					}
					walk(0)
					acc[b-lo] = a
				}
				t.Barrier(barPhase2)

				// Phase 3: integration. Owned bodies advance
				// deterministically; the Go-side state is the input to
				// the next step's tree.
				const dt = 1e-2
				for b := lo; b < hi; b++ {
					v := t.Load(sh.bodyAddr(b), 32, emitter.None, emitter.None)
					m1 := t.FPMul(v, emitter.None)
					s1 := t.FPAdd(m1, v)
					t.FPMul(s1, emitter.None)
					t.Store(sh.bodyAddr(b), 32, s1, emitter.None)
					for d := 0; d < 3; d++ {
						sh.vel[b][d] += acc[b-lo][d] * dt
						nv := sh.pos[b][d] + sh.vel[b][d]*dt
						// Reflect off the unit box to keep the octree
						// domain fixed.
						if nv < 0 {
							nv, sh.vel[b][d] = -nv, -sh.vel[b][d]
						}
						if nv > 1 {
							nv, sh.vel[b][d] = 2-nv, -sh.vel[b][d]
						}
						sh.pos[b][d] = nv
					}
				}
				t.Barrier(barPhase3)
				if t.ID == 0 {
					sh.tree = buildBH(sh.pos)
				}
				t.Barrier(barPhase4)
			}
			t.Barrier(emitter.BarrierEnd)
		},
	}
}

// sqrt is a dependency-free Newton square root (the stdlib math import
// is avoided to keep the oracle arithmetic obviously deterministic
// across platforms: only +,-,*,/ on float64).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	if g > 1 {
		g = x / 2
	}
	for i := 0; i < 24; i++ {
		g = (g + x/g) / 2
	}
	return g
}
