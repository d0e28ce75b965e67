package network

import (
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"flashsim/internal/sim"
)

func TestHopsIsHammingDistance(t *testing.T) {
	n := New(DefaultConfig(16))
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 2}, {0, 15, 4}, {5, 10, 4}, {8, 12, 1},
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRouteIsECube(t *testing.T) {
	n := New(DefaultConfig(16))
	route := n.Route(0, 11) // 11 = 1011b: dims 0, 1, 3
	want := []int{1, 3, 11}
	if len(route) != len(want) {
		t.Fatalf("route %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route %v, want %v", route, want)
		}
	}
	if n.Route(5, 5) != nil {
		t.Fatal("self route should be empty")
	}
}

// TestRouteProperty: every hop flips exactly one bit and the route ends
// at the destination.
func TestRouteProperty(t *testing.T) {
	n := New(DefaultConfig(16))
	f := func(a, b uint8) bool {
		src, dst := int(a%16), int(b%16)
		route := n.Route(src, dst)
		cur := src
		for _, next := range route {
			diff := cur ^ next
			if diff == 0 || diff&(diff-1) != 0 {
				return false
			}
			cur = next
		}
		return cur == dst && len(route) == n.Hops(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyScalesWithHops(t *testing.T) {
	n := New(DefaultConfig(16))
	t1 := n.Send(0, 0, 1, 16)
	n2 := New(DefaultConfig(16))
	t2 := n2.Send(0, 0, 15, 16) // 4 hops
	if t2 <= t1 {
		t.Fatalf("4-hop (%d) should exceed 1-hop (%d)", t2, t1)
	}
}

func TestContentionSerializesLink(t *testing.T) {
	cfg := DefaultConfig(4)
	n := New(cfg)
	a1 := n.Send(0, 0, 1, 1024)
	a2 := n.Send(0, 0, 1, 1024) // same link, same instant
	if a2 <= a1 {
		t.Fatalf("second message not delayed: %d vs %d", a2, a1)
	}

	cfg.ModelContention = false
	m := New(cfg)
	b1 := m.Send(0, 0, 1, 1024)
	b2 := m.Send(0, 0, 1, 1024)
	if b1 != b2 {
		t.Fatalf("latency-only model must not contend: %d vs %d", b1, b2)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	n := New(DefaultConfig(4))
	if got := n.Send(100, 2, 2, 1024); got != 100 {
		t.Fatalf("self send took %d", got-100)
	}
}

func TestStatsAccumulate(t *testing.T) {
	n := New(DefaultConfig(4))
	n.Send(0, 0, 3, 64)
	st := n.Stats()
	if st.Messages != 1 || st.Bytes != 64 || st.Hops != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNonPowerOfTwoRoundsUp(t *testing.T) {
	n := New(DefaultConfig(12)) // embeds in a 16-node cube
	if got := n.Hops(0, 11); got != 3 {
		t.Fatalf("hops in partial cube: %d", got)
	}
}

func TestSerializationTimeGrowsWithSize(t *testing.T) {
	mk := func() *Network { return New(DefaultConfig(4)) }
	small := mk().Send(0, 0, 1, 16)
	big := mk().Send(0, 0, 1, 4096)
	if big <= small {
		t.Fatalf("serialization: %d vs %d", big, small)
	}
	_ = sim.Ticks(0)
}

// TestSendWalksRoute: on every (src, dst) pair of full, partial and
// degenerate cubes, one Send on a fresh network reserves exactly the
// directed links of Route(src, dst), counts Hops(src, dst) hops, and
// takes the uncontended per-hop time, so no link of the route is
// reserved twice.
func TestSendWalksRoute(t *testing.T) {
	for _, nodes := range []int{1, 2, 16, 32, 24} {
		cfg := DefaultConfig(nodes)
		const size = 144
		perHop := sim.Ticks(size*ticksPerKByte/1024+1) + cfg.HopTicks + cfg.RouterTicks
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				n := New(cfg)
				route := n.Route(src, dst)
				arrive := n.Send(1000, src, dst, size)
				if want := 1000 + sim.Ticks(len(route))*perHop; arrive != want {
					t.Fatalf("%d nodes %d->%d: arrival %d, want %d", nodes, src, dst, arrive, want)
				}
				if got := n.Stats().Hops; got != uint64(n.Hops(src, dst)) || got != uint64(len(route)) {
					t.Fatalf("%d nodes %d->%d: %d hops counted, Hops=%d, route %v", nodes, src, dst, got, n.Hops(src, dst), route)
				}
				reserved := map[int]bool{} // indexes of links holding a reservation
				for i := range n.links {
					if !reflect.ValueOf(n.links[i]).IsZero() {
						reserved[i] = true
					}
				}
				if len(reserved) != len(route) {
					t.Fatalf("%d nodes %d->%d: %d links reserved, route %v", nodes, src, dst, len(reserved), route)
				}
				cur := src
				for _, next := range route {
					if d := bits.TrailingZeros(uint(cur ^ next)); !reserved[cur*n.dims+d] {
						t.Fatalf("%d nodes %d->%d: link %d->%d not reserved; route %v", nodes, src, dst, cur, next, route)
					}
					cur = next
				}
			}
		}
	}
}

// TestSingleNodeNetwork: one node means zero dimensions and an empty
// link table; nothing may index it.
func TestSingleNodeNetwork(t *testing.T) {
	n := New(DefaultConfig(1))
	if got := n.Send(7, 0, 0, 144); got != 7 {
		t.Fatalf("self send arrives at %d", got)
	}
	if n.Route(0, 0) != nil || n.Hops(0, 0) != 0 {
		t.Fatal("single node has a route")
	}
	if len(n.links) != 0 {
		t.Fatalf("%d links in a single-node network", len(n.links))
	}
}

// sendScript is a fixed all-pairs-ish traffic pattern over a 32-node
// cube: it returns the i-th message's endpoints.
func sendScript(i int) (src, dst int) { return i * 7 % 32, (i*13 + 5) % 32 }

// TestSendMatchesRouteUnderLoad pins hop order under contention, which
// TestSendWalksRoute's uncontended sends cannot see: over several rounds
// of sendScript on a 32-node cube, every arrival equals that of a
// reference walking Route(src, dst) on a second network, reserving each
// hop's directed link and then the router it enters.
func TestSendMatchesRouteUnderLoad(t *testing.T) {
	cfg := DefaultConfig(32)
	n, ref := New(cfg), New(cfg)
	now := sim.Ticks(0)
	for i := 0; i < 4*32*32; i++ {
		src, dst := sendScript(i)
		size := [...]int{16, 144}[i&1]
		ser := sim.Ticks(size*ticksPerKByte/1024 + 1)
		want, cur := now, src
		for _, next := range ref.Route(src, dst) {
			_, done := ref.links[cur*ref.dims+bits.TrailingZeros(uint(cur^next))].Acquire(want, ser)
			_, want = ref.routers[next].Acquire(done+cfg.HopTicks, cfg.RouterTicks)
			cur = next
		}
		if got := n.Send(now, src, dst, size); got != want {
			t.Fatalf("message %d, %d->%d at %d: arrival %d, route walk %d", i, src, dst, now, got, want)
		}
		now += 20
	}
}

// TestSendDoesNotAllocate pins the contended send path: once every
// link and router on the script's routes has made its window, a message
// costs no allocation.
func TestSendDoesNotAllocate(t *testing.T) {
	n := New(DefaultConfig(32))
	now, i := sim.Ticks(0), 0
	send := func() {
		src, dst := sendScript(i)
		n.Send(now, src, dst, 144)
		now += 20
		i++
	}
	round := func() {
		for k := 0; k < 32*32; k++ {
			send()
		}
	}
	round()
	// One run is a whole round: AllocsPerRun reports whole allocations
	// per run, and a hop slice per message or a window per slide must not
	// round down to zero.
	if a := testing.AllocsPerRun(10, round); a != 0 {
		t.Fatalf("Send allocates %.0f objects per %d messages", a, 32*32)
	}
}

func BenchmarkNetworkSend(b *testing.B) {
	n := New(DefaultConfig(32))
	now := sim.Ticks(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, dst := sendScript(i)
		sinkTicks = n.Send(now, src, dst, 144)
		now += 20
	}
}

var sinkTicks sim.Ticks
