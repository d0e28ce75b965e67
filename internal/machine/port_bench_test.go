package machine

import (
	"testing"

	"flashsim/internal/cache"
	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/osmodel"
	"flashsim/internal/sim"
)

// hitPathRig returns a one-node SimOS port with its pages touched and
// the addresses the hit-path instruments cycle over: l1 stays resident
// in L1 in Modified state; the three l2 lines share an L1 set (two
// ways), so touching them in rotation misses L1 and hits L2 every time.
func hitPathRig(tb testing.TB) (p *memPort, l1 uint64, l2 [3]uint64) {
	r := newPortRig(tb, osmodel.SimOS, 1, false)
	r.quiet = true
	l1 = r.page(0, 64)
	for i := range l2 {
		l2[i] = r.page(1+i, 0)
	}
	for _, va := range append(l2[:], l1) {
		r.do(0, isa.Store, va, false)
		r.tick(50_000)
	}
	return r.m.nodes[0].port, l1, l2
}

var portSink cpu.MemInfo

// BenchmarkPortAccess times the memory port's parallel-phase entry
// points — what a core calls on every load and store — on the paths
// that never reach the barrier, plus the prefix of a deferred miss (the
// op is pushed and discarded, so the line never lands). Run with
// -benchmem: every row is 0 allocs/op.
func BenchmarkPortAccess(b *testing.B) {
	b.Run("l1hit-load", func(b *testing.B) {
		p, va, _ := hitPathRig(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			portSink = p.Load(sim.Ticks(i), va, 8)
		}
	})
	b.Run("l1hit-store", func(b *testing.B) {
		p, va, _ := hitPathRig(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			portSink = p.Store(sim.Ticks(i), va, 8)
		}
	})
	b.Run("l2hit-load", func(b *testing.B) {
		p, _, vas := hitPathRig(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			portSink = p.Load(sim.Ticks(i), vas[i%3], 8)
		}
	})
	b.Run("miss-deferred", func(b *testing.B) {
		p, va, _ := hitPathRig(b)
		va += 1024 // same page, a line never fetched
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			portSink = p.Load(sim.Ticks(i), va, 8)
			p.m.ops = p.m.ops[:0]
		}
	})
}

// TestPortHitPathAllocatesNothing holds the hit paths to the hot-path
// contract: an L1 or L2 hit, load or store, allocates nothing.
func TestPortHitPathAllocatesNothing(t *testing.T) {
	p, l1, l2 := hitPathRig(t)
	var now sim.Ticks
	i := 0 // rotation through l2: the line touched least recently is never in L1
	for _, c := range []struct {
		name   string
		access func()
		level  *cache.Cache // whose hit counter the path bumps
	}{
		{"l1hit-load", func() { portSink = p.Load(now, l1, 8) }, p.l1},
		{"l1hit-store", func() { portSink = p.Store(now, l1, 8) }, p.l1},
		{"l2hit-load", func() { portSink = p.Load(now, l2[i%3], 8); i++ }, p.l2},
		{"l2hit-store", func() { portSink = p.Store(now, l2[i%3], 8); i++ }, p.l2},
	} {
		before := c.level.Stats().Hits
		allocs := testing.AllocsPerRun(1000, func() {
			c.access()
			now += 100
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per access, want 0", c.name, allocs)
		}
		// AllocsPerRun makes one warm-up call before its 1000 runs.
		if got := c.level.Stats().Hits - before; got != 1001 {
			t.Errorf("%s: %d of 1001 accesses took the path", c.name, got)
		}
	}
}
