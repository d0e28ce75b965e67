package sim

import "flashsim/internal/recycle"

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
	// ring holds the n reserved [start, end) intervals from ring[head] on,
	// sorted by start, at most maxIntervals of them, inline: a
	// reservation allocates nothing. A positive-length interval starts at
	// or after the end of every interval before it; zero-length ones
	// (dur == 0 is configurable) need not, so ends are not sorted
	// (DESIGN.md, "Interval-based resource reservation").
	ring    [ringMask + 1]interval
	head, n int
}

type interval struct{ start, end Ticks }

// maxIntervals bounds the reservation bookkeeping; when exceeded the
// oldest intervals are folded together (they are in the causal past).
const maxIntervals = 48

// ringMask wraps ring indexes. The ring's length, ringMask+1, is a power
// of two above maxIntervals: an insert holds one interval more until it
// merges.
const ringMask = 63

// Acquire reserves the server at or after time t for dur. It returns the
// start time of service (>= t) and the completion time: the first gap of
// sufficient length in start order. The scan starts after the newest
// positive-length interval that ends at or before t: it and everything
// older lie wholly before t, so they can neither end the scan nor move
// it. A zero-length interval cannot be that boundary — it does not bound
// the ends before it.
//
// One walk finds the grant and places it. Walking back to the scan
// start moves each interval passed up one slot, which opens a hole
// there; the forward scan reads the moved copies and moves each one it
// passes back down, so the hole ends where the scan stops. The new
// interval goes in it, after every interval starting at or before it:
// the scan passes only such intervals and stops at a later-starting
// one, except for two fix-ups. With dur == 0 the scan can stop at an
// interval starting exactly at the grant, which the hole moves past;
// an interval whose end wrapped past 2^64 can be passed though it
// starts after the grant, which the hole moves back over.
func (s *Server) Acquire(t, dur Ticks) (start, done Ticks) {
	r, h, n := &s.ring, s.head, s.n
	i := n
	for ; i > 0; i-- {
		iv := r[(h+i-1)&ringMask]
		if iv.end <= t && iv.start < iv.end {
			break
		}
		r[(h+i)&ringMask] = iv
	}
	start = t
	for ; i < n; i++ {
		iv := r[(h+i+1)&ringMask]
		if start+dur <= iv.start {
			break
		}
		start = max(start, iv.end)
		r[(h+i)&ringMask] = iv
	}
	for ; i < n && r[(h+i+1)&ringMask].start <= start; i++ {
		r[(h+i)&ringMask] = r[(h+i+1)&ringMask]
	}
	for ; i > 0 && r[(h+i-1)&ringMask].start > start; i-- {
		r[(h+i)&ringMask] = r[(h+i-1)&ringMask]
	}
	done = start + dur
	r[(h+i)&ringMask] = interval{start, done}
	if s.n++; s.n > maxIntervals {
		// Merge the two oldest intervals (pessimistically bridging
		// the gap between them; they are in the causal past).
		first := r[h&ringMask]
		s.head, s.n = (h+1)&ringMask, s.n-1
		next := &r[s.head]
		next.start, next.end = first.start, max(next.end, first.end)
	}
	return start, done
}

// Banks is a set of independently contended servers addressed by an
// interleaving function, modeling e.g. DRAM banks interleaved by cache
// line.
type Banks struct {
	banks []Server
}

// Reset makes b n idle banks, in b's array when that is large enough; a
// zero Banks is ready for it.
func (b *Banks) Reset(n int) { b.banks = recycle.Zeroed(b.banks, n) }

// Acquire reserves bank (idx mod n) at or after t for dur.
func (b *Banks) Acquire(idx uint64, t, dur Ticks) (start, done Ticks) {
	return b.banks[idx%uint64(len(b.banks))].Acquire(t, dur)
}
