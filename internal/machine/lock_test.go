package machine

import (
	"math/rand"
	"testing"

	"flashsim/internal/cpu"
	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/sim"
)

// grantCore stands in for a processor waiting on a lock: each slice the
// machine resumes it for appends its node to the log, and it runs no
// further.
type grantCore struct {
	node int
	log  *[]int
}

func (c grantCore) Run(sim.Ticks) cpu.Outcome {
	*c.log = append(*c.log, c.node)
	return cpu.Outcome{Kind: cpu.Blocked}
}
func (grantCore) Instructions() uint64             { return 0 }
func (grantCore) Deliver(mi cpu.MemInfo) sim.Ticks { return mi.Done }

// lockRig drives one lock of a built machine through handleSync, the
// barrier phase's entry, beside a naive FIFO of lockWaiter that appends
// and pops by shifting every waiter down a slot.
type lockRig struct {
	t       testing.TB
	m       *Machine
	rng     *rand.Rand
	now     sim.Ticks
	resumed []int
	holder  int
	naive   []lockWaiter
	peak    int
}

const rigLock = 3

func newLockRig(t testing.TB, procs int) *lockRig {
	r := &lockRig{t: t, rng: rand.New(rand.NewSource(1)), holder: -1, resumed: make([]int, 0, procs)}
	cfg := Base(procs, true)
	cfg.Name = "lock-fifo"
	r.m = build(cfg, emitter.NewAddressSpace(), func(i int, _ sim.Clock, _ *memPort) cpu.CPU {
		return grantCore{node: i, log: &r.resumed}
	})
	return r
}

// sync runs node n's op and returns the nodes it resumed.
func (r *lockRig) sync(n int, op isa.Op) []int {
	r.resumed = r.resumed[:0]
	r.m.handleSync(r.m.nodes[n], r.now, op, rigLock)
	for r.m.queue.Step() {
	}
	if r.m.runErr != nil {
		r.t.Fatal(r.m.runErr)
	}
	r.now += 50
	return r.resumed
}

// handOff makes one move: a node that neither holds nor waits for the
// lock asks for it, or, when every other node waits or a coin says so,
// the holder releases it. A release must resume the releaser and the
// naive queue's head, and nothing else.
func (r *lockRig) handOff() {
	procs := len(r.m.nodes)
	if r.holder >= 0 && (len(r.naive) == procs-1 || len(r.naive) > 0 && r.rng.Intn(2) == 0) {
		next := r.naive[0].node
		r.naive = append(r.naive[:0], r.naive[1:]...)
		got := r.sync(r.holder, isa.Unlock)
		if len(got) != 2 || !(got[0] == r.holder && got[1] == next || got[0] == next && got[1] == r.holder) {
			r.t.Fatalf("node %d released the lock and resumed %v; the FIFO's head is node %d", r.holder, got, next)
		}
		r.holder = next
		return
	}
	n := r.rng.Intn(procs)
	for n == r.holder || r.waits(n) {
		n = (n + 1) % procs
	}
	got := r.sync(n, isa.Lock)
	switch {
	case r.holder < 0 && (len(got) != 1 || got[0] != n):
		r.t.Fatalf("node %d took a free lock and resumed %v", n, got)
	case r.holder < 0:
		r.holder = n
	case len(got) != 0:
		r.t.Fatalf("node %d queued behind node %d and resumed %v", n, r.holder, got)
	default:
		r.naive = append(r.naive, lockWaiter{node: n})
		r.peak = max(r.peak, len(r.naive))
	}
}

func (r *lockRig) waits(n int) bool {
	for _, w := range r.naive {
		if w.node == n {
			return true
		}
	}
	return false
}

// TestLockGrantsInFIFOOrder drives one lock through thousands of
// contended hand-offs with 1 to Procs−1 waiters and holds the grant
// order to the naive queue's. Once the lock has held its peak number of
// waiters, a hand-off reuses the queue's slots and allocates nothing.
func TestLockGrantsInFIFOOrder(t *testing.T) {
	for _, procs := range []int{2, 5, 16} {
		r := newLockRig(t, procs)
		for r.peak < procs-1 {
			r.handOff()
		}
		for i := 0; i < 8000; i++ {
			r.handOff()
		}
		const moves = 64
		if a := testing.AllocsPerRun(20, func() {
			for i := 0; i < moves; i++ {
				r.handOff()
			}
		}); a != 0 {
			t.Errorf("%d processors: %.0f allocations per %d hand-offs after the peak", procs, a, moves)
		}
	}
}
