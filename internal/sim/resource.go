package sim

// The resource types below model contention by reservation: a request
// arriving at time t for a busy resource is granted at the resource's
// next free time. Reservations must be made in nondecreasing request
// order for queueing delays to be exact; the machine run loop guarantees
// this by dispatching all shared-resource activity through the event
// queue. (A reservation arriving "in the past" relative to the
// resource's horizon is still served FIFO at the horizon, which is the
// standard approximation in reservation-based simulators.)

// Server is a single-ported resource: one request at a time, each
// occupying the server for a caller-supplied duration.
//
// Reservations are interval-based rather than horizon-based: a request
// arriving at time t is scheduled into the earliest gap of sufficient
// length at or after t. This matters because processors issue whole
// transactions synchronously — a transaction whose issue time was
// deferred far into the future (a full MSHR ladder) reserves resources
// at that future time, and with a single next-free horizon one such
// reservation would block every earlier request behind it, amplifying
// queueing without bound. Gap backfill keeps service work-conserving
// under the bounded causality skew of the run loop.
type Server struct {
	// win[lo:] holds the reserved [start, end) intervals, sorted by
	// start, at most maxIntervals of them. The window slides through one
	// backing array made on first use and compacted in place at its end,
	// so steady-state reservations allocate nothing. A positive-length
	// interval starts at or after the end of every interval before it;
	// zero-length ones (dur == 0 is configurable) need not, so ends are
	// not sorted (DESIGN.md, "Interval-based resource reservation").
	win []interval
	lo  int
}

type interval struct{ start, end Ticks }

// maxIntervals bounds the reservation bookkeeping; when exceeded the
// oldest intervals are folded together (they are in the causal past).
const maxIntervals = 48

// windowCap is the backing array's length: the live window plus the room
// it slides through between compactions.
const windowCap = 2 * maxIntervals

// schedule finds the earliest service start >= t for dur given the busy
// list (without mutating): the first gap of sufficient length in start
// order. The scan starts after the newest positive-length interval that
// ends at or before t: it and everything older lie wholly before t, so
// they can neither end the scan nor move it. A zero-length interval
// cannot be that boundary — it does not bound the ends before it.
func (s *Server) schedule(t, dur Ticks) Ticks {
	busy := s.win[s.lo:]
	i := len(busy)
	for ; i > 0; i-- {
		if iv := busy[i-1]; iv.end <= t && iv.start < iv.end {
			break
		}
	}
	start := t
	for _, iv := range busy[i:] {
		if start+dur <= iv.start {
			break
		}
		if start < iv.end {
			start = iv.end
		}
	}
	return start
}

// Acquire reserves the server at or after time t for dur. It returns the
// start time of service (>= t) and the completion time.
func (s *Server) Acquire(t, dur Ticks) (start, done Ticks) {
	start = s.schedule(t, dur)
	done = start + dur
	s.insert(interval{start, done})
	return start, done
}

// insert adds iv keeping the list sorted and bounded.
func (s *Server) insert(iv interval) {
	if len(s.win) == cap(s.win) {
		if s.win == nil {
			s.win = make([]interval, 0, windowCap)
		} else {
			s.win = s.win[:copy(s.win, s.win[s.lo:])]
			s.lo = 0
		}
	}
	i := len(s.win)
	s.win = s.win[:i+1]
	for ; i > s.lo && s.win[i-1].start > iv.start; i-- {
		s.win[i] = s.win[i-1]
	}
	s.win[i] = iv
	if busy := s.win[s.lo:]; len(busy) > maxIntervals {
		// Merge the two oldest intervals (pessimistically bridging
		// the gap between them; they are in the causal past).
		busy[1].start = busy[0].start
		if busy[0].end > busy[1].end {
			busy[1].end = busy[0].end
		}
		s.lo++
	}
}

// Banks is a set of independently contended servers addressed by an
// interleaving function, modeling e.g. DRAM banks interleaved by cache
// line.
type Banks struct {
	banks []Server
}

// NewBanks creates n banks.
func NewBanks(n int) *Banks { return &Banks{banks: make([]Server, n)} }

// Acquire reserves bank (idx mod n) at or after t for dur.
func (b *Banks) Acquire(idx uint64, t, dur Ticks) (start, done Ticks) {
	return b.banks[idx%uint64(len(b.banks))].Acquire(t, dur)
}
