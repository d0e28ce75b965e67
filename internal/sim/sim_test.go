package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNSConversion(t *testing.T) {
	cases := []struct {
		ns   float64
		want Ticks
	}{
		{0, 0}, {50, 45}, {140, 126}, {1000, 900}, {10, 9},
	}
	for _, c := range cases {
		if got := NS(c.ns); got != c.want {
			t.Errorf("NS(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestToNSRoundTrip(t *testing.T) {
	for _, ns := range []float64{10, 50, 140, 1000, 12345} {
		back := ToNS(NS(ns))
		if back < ns-1.2 || back > ns+1.2 {
			t.Errorf("round trip %v -> %v", ns, back)
		}
	}
}

func TestClockPeriods(t *testing.T) {
	cases := []struct {
		mhz    int
		period Ticks
	}{
		{150, 6}, {225, 4}, {300, 3}, {75, 12}, {900, 1}, {450, 2},
	}
	for _, c := range cases {
		clk := NewClock(c.mhz)
		if clk.Period != c.period {
			t.Errorf("clock %d MHz period = %d, want %d", c.mhz, clk.Period, c.period)
		}
	}
}

func TestClockRejectsNonDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 133 MHz")
		}
	}()
	NewClock(133)
}

func TestClockCycles(t *testing.T) {
	if got := Clock150.Cycles(10); got != 60 {
		t.Errorf("150MHz 10 cycles = %d ticks, want 60", got)
	}
}

func TestClockAlign(t *testing.T) {
	c := Clock150 // period 6
	cases := []struct{ in, want Ticks }{{0, 0}, {1, 6}, {5, 6}, {6, 6}, {7, 12}}
	for _, cse := range cases {
		if got := c.Align(cse.in); got != cse.want {
			t.Errorf("Align(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

// drain steps q until it is empty.
func drain(q *Queue) {
	for q.Step() {
	}
}

func TestQueueFiresInTimeOrder(t *testing.T) {
	q := NewQueue()
	var fired []Ticks
	h := HandlerFunc(func(now Ticks, _ uint64) { fired = append(fired, now) })
	for _, at := range []Ticks{50, 10, 30, 10, 20} {
		q.ScheduleFn(at, 0, h, 0)
	}
	drain(q)
	want := []Ticks{10, 10, 20, 30, 50}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestQueuePriorityBreaksTies(t *testing.T) {
	q := NewQueue()
	h := &countHandler{}
	for _, p := range []int32{3, 1, 2} {
		q.ScheduleFn(100, p, h, uint64(p))
	}
	drain(q)
	if order := h.fired; order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("tie order %v, want [1 2 3]", order)
	}
}

func TestQueueSeqBreaksRemainingTies(t *testing.T) {
	q := NewQueue()
	h := &countHandler{}
	for i := 0; i < 10; i++ {
		q.ScheduleFn(7, 0, h, uint64(i))
	}
	drain(q)
	for i, arg := range h.fired {
		if arg != uint64(i) {
			t.Fatalf("insertion order not preserved: %v", h.fired)
		}
	}
}

// TestQueueAcceptsPastEvents pins the one mode the queue has: an event
// below Now is dispatched in (at, prio, seq) order like any other, and
// Now regresses to its time.
func TestQueueAcceptsPastEvents(t *testing.T) {
	q := NewQueue()
	h := &countHandler{}
	q.ScheduleFn(100, 0, h, 1)
	q.Step()
	q.ScheduleFn(60, 0, h, 3)
	q.ScheduleFn(50, 0, h, 2)
	if !q.Step() || q.Now() != 50 {
		t.Fatalf("past event: Now = %d, want 50", q.Now())
	}
	drain(q)
	if len(h.fired) != 3 || h.fired[1] != 2 || h.fired[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", h.fired)
	}
}

func TestQueueSchedulingDuringDispatch(t *testing.T) {
	q := NewQueue()
	var fired []Ticks
	var h HandlerFunc
	h = func(now Ticks, arg uint64) {
		fired = append(fired, now)
		if arg == 0 {
			q.ScheduleFn(now+5, 0, h, 1)
		}
	}
	q.ScheduleFn(1, 0, h, 0)
	drain(q)
	if len(fired) != 2 || fired[1] != 6 {
		t.Fatalf("chained scheduling: %v", fired)
	}
}

// TestQueueOrderProperty: random schedules always dispatch in
// nondecreasing time order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		q := NewQueue()
		var fired []Ticks
		h := HandlerFunc(func(now Ticks, _ uint64) { fired = append(fired, now) })
		for _, x := range times {
			q.ScheduleFn(Ticks(x), 0, h, 0)
		}
		drain(q)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerializes(t *testing.T) {
	var s Server
	_, d1 := s.Acquire(0, 10)
	if d1 != 10 {
		t.Fatalf("first acquire done = %d", d1)
	}
	start2, d2 := s.Acquire(5, 10)
	if start2 != 10 || d2 != 20 {
		t.Fatalf("second acquire = (%d,%d), want (10,20)", start2, d2)
	}
}

func TestServerBackfillsGaps(t *testing.T) {
	var s Server
	// Far-future reservation must not block an earlier request.
	s.Acquire(1000, 50)
	start, done := s.Acquire(10, 20)
	if start != 10 || done != 30 {
		t.Fatalf("early request blocked by future reservation: (%d,%d)", start, done)
	}
	// But a request that does not fit the gap is pushed past it.
	start, _ = s.Acquire(995, 50)
	if start < 1050 {
		t.Fatalf("overlapping request not serialized: start=%d", start)
	}
}

// TestServerNoOverlapProperty: random acquires never overlap in service
// time.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct {
		T   uint16
		Dur uint8
	}) bool {
		var s Server
		type iv struct{ a, b Ticks }
		var ivs []iv
		for _, r := range reqs {
			dur := Ticks(r.Dur%32) + 1
			start, done := s.Acquire(Ticks(r.T), dur)
			if start < Ticks(r.T) || done != start+dur {
				return false
			}
			ivs = append(ivs, iv{start, done})
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].a < ivs[j].b && ivs[j].a < ivs[i].b {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestServerIntervalPruning checks the maxIntervals bound through what a
// caller can observe: once more than maxIntervals reservations exist,
// the oldest are merged into one interval that bridges their gaps, so a
// request in the causal past is served after the merged block while the
// gaps between the retained intervals still backfill. Each probe is a
// one-tick Acquire on a freshly filled server.
func TestServerIntervalPruning(t *testing.T) {
	const n = maxIntervals * 4
	probe := func(at Ticks) Ticks {
		var s Server
		for i := 0; i < n; i++ {
			s.Acquire(Ticks(i*100), 10)
		}
		start, _ := s.Acquire(at, 1)
		return start
	}
	// The newest maxIntervals-1 reservations are retained one by one;
	// everything older is one block ending where the last merged one did.
	merged := n - (maxIntervals - 1)
	blockEnd := Ticks((merged-1)*100 + 10)
	if got := probe(15); got != blockEnd {
		t.Fatalf("request inside the merged block starts at %d, want %d", got, blockEnd)
	}
	if got := probe(blockEnd + 5); got != blockEnd+5 {
		t.Fatalf("gap after the merged block not backfilled: %d", got)
	}
	if got := probe(blockEnd - 5); got != blockEnd {
		t.Fatalf("last merged gap still open: %d", got)
	}
}

// refServer is the forward-scan, reslice-and-append Server this package
// shipped before the bounded window: schedule walks every retained
// interval from the oldest, insert lets the slice creep through its
// backing array. It is the oracle TestServerMatchesReference holds the
// current implementation to.
type refServer struct {
	busy []interval
}

func (s *refServer) schedule(t, dur Ticks) Ticks {
	start := t
	for _, iv := range s.busy {
		if start+dur <= iv.start {
			break
		}
		if start < iv.end {
			start = iv.end
		}
	}
	return start
}

func (s *refServer) Acquire(t, dur Ticks) (start, done Ticks) {
	start = s.schedule(t, dur)
	done = start + dur
	s.insert(interval{start, done})
	return start, done
}

func (s *refServer) insert(iv interval) {
	i := len(s.busy)
	for i > 0 && s.busy[i-1].start > iv.start {
		i--
	}
	s.busy = append(s.busy, interval{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = iv
	if len(s.busy) > maxIntervals {
		s.busy[1].start = s.busy[0].start
		if s.busy[0].end > s.busy[1].end {
			s.busy[1].end = s.busy[0].end
		}
		s.busy = s.busy[1:]
	}
}

// TestServerMatchesReference drives Server and refServer with the same
// request streams and requires identical grants after every call, and
// so identical waits (start − t), and identical answers to a one-tick
// probe of the schedule that reserves nothing. Each stream mixes the
// shapes the machine produces: requests at the reservation frontier,
// far-future reservations (a full MSHR ladder), requests in the causal
// past, and zero-length reservations (router or handler time
// configured to 0), in runs far longer than maxIntervals so the
// oldest-pair merge is exercised throughout.
func TestServerMatchesReference(t *testing.T) {
	type mix struct {
		name                          string
		frontier, future, past, zeros int // relative weights
		maxDur                        int64
	}
	mixes := []mix{
		{"frontier", 90, 4, 4, 2, 40},
		{"ladder", 50, 40, 8, 2, 40},
		{"past-heavy", 30, 10, 55, 5, 40},
		{"zero-heavy", 40, 5, 15, 40, 6},
		{"all-zero", 0, 0, 0, 1, 1},
		{"dense", 70, 10, 10, 10, 3},
	}
	const acquires = 100_000
	for _, m := range mixes {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(m.name)) * 7919))
			var s Server
			var ref refServer
			now := Ticks(0) // the stream's notion of current time
			total := m.frontier + m.future + m.past + m.zeros
			for i := 0; i < acquires; i++ {
				now += Ticks(rng.Int63n(25))
				at := now
				dur := Ticks(rng.Int63n(m.maxDur) + 1)
				switch k := rng.Intn(total); {
				case k < m.frontier:
					at += Ticks(rng.Int63n(30))
				case k < m.frontier+m.future:
					at += Ticks(500 + rng.Int63n(5000))
				case k < m.frontier+m.future+m.past:
					if back := Ticks(rng.Int63n(3000)); back < at {
						at -= back
					} else {
						at = 0
					}
				default:
					// Zero-length, landing on and around recent
					// boundaries so it collides with existing starts.
					dur = 0
					at += Ticks(rng.Int63n(12)) - 6
					if at < 0 {
						at = 0
					}
				}
				if rng.Intn(4) == 0 {
					p := at + Ticks(rng.Int63n(200)) - 100
					if p < 0 {
						p = 0
					}
					if got, want := s.schedule(p, 1), ref.schedule(p, 1); got != want {
						t.Fatalf("call %d: probe at %d starts at %d, reference %d", i, p, got, want)
					}
				}
				gs, gd := s.Acquire(at, dur)
				ws, wd := ref.Acquire(at, dur)
				if gs != ws || gd != wd {
					t.Fatalf("call %d: Acquire(%d, %d) = (%d, %d), reference (%d, %d)", i, at, dur, gs, gd, ws, wd)
				}
				if gs < at {
					t.Fatalf("call %d: Acquire(%d, %d) granted at %d, a negative wait", i, at, dur, gs)
				}
			}
		})
	}
}

// TestServerAcquireDoesNotAllocate pins the steady state: once a server
// has made its window, reservations of every shape reuse it.
func TestServerAcquireDoesNotAllocate(t *testing.T) {
	var s Server
	s.Acquire(0, 10)
	now := Ticks(0)
	i := 0
	// AllocsPerRun reports whole allocations per run, so one run is
	// several windows' worth of reservations: a window that reallocates
	// once per slide must not round down to zero.
	if a := testing.AllocsPerRun(20, func() {
		for k := 0; k < 4*windowCap; k++ {
			i++
			now += 7
			at, dur := now, Ticks(5)
			switch i % 8 {
			case 3:
				at += 900 // far future
			case 5:
				at -= at / 2 // causal past
			case 7:
				dur = 0
			}
			s.Acquire(at, dur)
		}
	}); a != 0 {
		t.Fatalf("steady-state Acquire allocates %.0f objects per %d calls", a, 4*windowCap)
	}
}

func TestBanksIndependentContention(t *testing.T) {
	b := NewBanks(2)
	_, d0 := b.Acquire(0, 0, 10)
	_, d1 := b.Acquire(1, 0, 10)
	_, d2 := b.Acquire(2, 0, 10) // same bank as 0
	if d0 != 10 || d1 != 10 {
		t.Fatalf("different banks should not contend: %d %d", d0, d1)
	}
	if d2 != 20 {
		t.Fatalf("same bank should serialize: %d", d2)
	}
}

// BenchmarkServerAcquire prices one reservation on a full window.
// "frontier" is the common case, every request at or just behind the
// newest reservation; "ladder" sends one request in four far into the
// future, the MSHR-ladder shape that leaves gaps for later requests to
// backfill.
func BenchmarkServerAcquire(b *testing.B) {
	for _, mix := range []struct {
		name   string
		future int // one request in `future` is far-future; 0 = none
	}{{"frontier", 0}, {"ladder", 4}} {
		b.Run(mix.name, func(b *testing.B) {
			var s Server
			rng := rand.New(rand.NewSource(1))
			offs := make([]Ticks, 1024)
			for i := range offs {
				offs[i] = Ticks(rng.Int63n(40))
			}
			now := Ticks(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 12
				at := now - offs[i%len(offs)]
				if at < 0 {
					at = 0
				}
				if mix.future != 0 && i%mix.future == 0 {
					at = now + 2000 + offs[i%len(offs)]*50
				}
				_, sinkTicks = s.Acquire(at, 10)
			}
		})
	}
}

var sinkTicks Ticks
