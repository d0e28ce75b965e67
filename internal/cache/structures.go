package cache

import "flashsim/internal/sim"

// WriteBuffer models the small store buffer between the processor and
// the cache hierarchy. Mipsy "has blocking reads, but supports both
// prefetching and a write buffer"; FLASH's Solo/SimOS configurations use
// a four-entry buffer. A store that finds the buffer full stalls the
// processor until the oldest entry drains.
type WriteBuffer struct {
	entries int
	// drains holds the completion times of in-flight stores, ascending.
	// Its backing array has entries slots and is never outgrown: removals
	// compact in place and insertions come after room was made.
	drains []sim.Ticks
}

// NewWriteBuffer creates a write buffer with the given entry count.
func NewWriteBuffer(entries int) *WriteBuffer {
	if entries <= 0 {
		entries = 1
	}
	return &WriteBuffer{entries: entries, drains: make([]sim.Ticks, 0, entries)}
}

// Push records a store issued at time t whose memory operation completes
// at done. It returns the time the *processor* may proceed: t if a slot
// was free, or the drain time of the oldest entry if the buffer was
// full.
func (w *WriteBuffer) Push(t, done sim.Ticks) sim.Ticks {
	w.expire(t)
	proceed := w.admit(t)
	w.insert(done)
	return proceed
}

// PushPending reserves a slot for a store issued at time t whose
// completion time is not yet known (the miss is deferred to a barrier
// phase). The placeholder sits at the buffer tail as sim.Forever until
// Patch fills it in. ok=false means every slot is held by an unpatched
// placeholder, so the oldest drain time is unknowable and the caller
// must defer the whole store instead; otherwise proceed is when the
// processor may continue (t, or the oldest real entry's drain on a full
// buffer).
func (w *WriteBuffer) PushPending(t sim.Ticks) (proceed sim.Ticks, ok bool) {
	w.expire(t)
	if len(w.drains) >= w.entries && w.drains[0] == sim.Forever {
		return 0, false
	}
	proceed = w.admit(t)
	w.drains = append(w.drains, sim.Forever)
	return proceed, true
}

// Patch resolves the oldest placeholder to its real drain time. Stores
// issue in program order per node and the barrier phase executes their
// deferred operations in that same order, so first-placeholder-first is
// FIFO-correct.
func (w *WriteBuffer) Patch(done sim.Ticks) {
	for i, d := range w.drains {
		if d == sim.Forever {
			w.remove(i, 1)
			w.insert(done)
			return
		}
	}
}

// admit makes room for a store issued at t: on a full buffer the oldest
// entry leaves and the processor waits for its drain. It returns when
// the processor may proceed.
func (w *WriteBuffer) admit(t sim.Ticks) sim.Ticks {
	if len(w.drains) < w.entries {
		return t
	}
	oldest := w.drains[0]
	w.remove(0, 1)
	return max(oldest, t)
}

// insert places done in ascending order (completions can be out of
// order only through contention skew; keep it sorted for correctness).
// The caller has made room.
func (w *WriteBuffer) insert(done sim.Ticks) {
	i := len(w.drains)
	w.drains = w.drains[:i+1]
	for ; i > 0 && w.drains[i-1] > done; i-- {
		w.drains[i] = w.drains[i-1]
	}
	w.drains[i] = done
}

// DrainBy returns the time by which every buffered store has completed,
// given current time t (used at synchronization points).
func (w *WriteBuffer) DrainBy(t sim.Ticks) sim.Ticks {
	w.expire(t)
	if len(w.drains) == 0 {
		return t
	}
	last := w.drains[len(w.drains)-1]
	w.drains = w.drains[:0]
	if last > t {
		return last
	}
	return t
}

// expire drops entries already drained by time t.
func (w *WriteBuffer) expire(t sim.Ticks) {
	n := 0
	for n < len(w.drains) && w.drains[n] <= t {
		n++
	}
	if n > 0 {
		w.remove(0, n)
	}
}

// remove drops the n entries at index i, compacting in place.
func (w *WriteBuffer) remove(i, n int) {
	w.drains = w.drains[:i+copy(w.drains[i:], w.drains[i+n:])]
}

// MSHRs models the miss status holding registers that bound the number
// of outstanding cache misses (4 on the R10000, per Table 1). Requests
// to a line already outstanding merge; a new miss with all registers
// busy must wait for the earliest completion.
type MSHRs struct {
	n       int
	pending []mshr // outstanding misses, at most one per line, unordered
	merges  uint64
}

type mshr struct {
	line uint64
	done sim.Ticks // when the line's miss completes
}

// NewMSHRs creates an MSHR file with n registers.
func NewMSHRs(n int) *MSHRs {
	if n <= 0 {
		n = 1
	}
	return &MSHRs{n: n, pending: make([]mshr, 0, n)}
}

// Lookup reports whether a miss on lineAddr is already outstanding at
// time t and, if so, when it completes (the new request merges).
func (m *MSHRs) Lookup(lineAddr uint64, t sim.Ticks) (sim.Ticks, bool) {
	m.expire(t)
	for _, r := range m.pending {
		if r.line == lineAddr {
			m.merges++
			return r.done, true
		}
	}
	return 0, false
}

// Reserve allocates a register for a miss on lineAddr issued at time t.
// It returns the time the miss may actually be issued to the memory
// system: t if a register is free, else the earliest completion time
// among outstanding misses (the lowest line address among equals gives
// up its register).
func (m *MSHRs) Reserve(lineAddr uint64, t sim.Ticks) sim.Ticks {
	m.expire(t)
	issue := t
	if len(m.pending) >= m.n {
		v := 0
		for i, r := range m.pending {
			if c := m.pending[v]; r.done < c.done || (r.done == c.done && r.line < c.line) {
				v = i
			}
		}
		earliest := m.pending[v].done
		m.pending[v] = m.pending[len(m.pending)-1]
		m.pending = m.pending[:len(m.pending)-1]
		issue = max(issue, earliest)
	}
	return issue
}

// Complete records that the miss on lineAddr completes at done.
func (m *MSHRs) Complete(lineAddr uint64, done sim.Ticks) {
	for i := range m.pending {
		if m.pending[i].line == lineAddr {
			m.pending[i].done = done
			return
		}
	}
	m.pending = append(m.pending, mshr{lineAddr, done})
}

// expire retires registers whose misses completed by t.
func (m *MSHRs) expire(t sim.Ticks) {
	k := 0
	for _, r := range m.pending {
		if r.done > t {
			m.pending[k] = r
			k++
		}
	}
	m.pending = m.pending[:k]
}

// Merges returns the number of piggybacked requests: misses that
// joined an outstanding one.
func (m *MSHRs) Merges() uint64 { return m.merges }

// L2Interface models the occupancy of the R10000's external
// (secondary-cache) interface. "While data is being returned from the
// memory system and the processor is forwarding this data to the
// external cache, the external cache interface is occupied for the
// entire duration of the cacheline transfer. Even subsequent tag checks
// have to wait." This effect, absent from the untuned processor models,
// made them mispredict back-to-back load latency; the Calibrator enables
// and fits it.
type L2Interface struct {
	// Enabled selects whether occupancy is modeled at all.
	Enabled bool
	// TransferTicks is how long a line refill occupies the interface.
	TransferTicks sim.Ticks

	nextFree sim.Ticks
	windows  [8]struct{ start, end sim.Ticks }
	wpos     int
}

// AcquireForRefill reserves the interface for a line transfer whose
// critical word arrives at time t. Transfers serialize among themselves
// (one external interface). It returns the transfer start: the
// processor restarts on the critical word as the transfer begins, but
// the interface stays occupied for the whole TransferTicks — the R10000
// behavior ("while data is being returned ... the external cache
// interface is occupied for the entire duration of the cacheline
// transfer"), fixed in the R12000.
func (l *L2Interface) AcquireForRefill(t sim.Ticks) sim.Ticks {
	if !l.Enabled {
		return t
	}
	start := t
	if l.nextFree > start {
		start = l.nextFree
	}
	end := start + l.TransferTicks
	l.nextFree = end
	l.windows[l.wpos] = struct{ start, end sim.Ticks }{start, end}
	l.wpos = (l.wpos + 1) % len(l.windows)
	return start
}

// AcquireForTagCheck delays a tag check that lands inside an in-progress
// line transfer ("even subsequent tag checks have to wait for the
// cacheline transfer to complete"). A check before any reserved transfer
// begins proceeds immediately — future reservations do not block the
// past.
func (l *L2Interface) AcquireForTagCheck(t sim.Ticks) sim.Ticks {
	if !l.Enabled {
		return t
	}
	for moved := true; moved; {
		moved = false
		for _, w := range l.windows {
			if t >= w.start && t < w.end {
				t = w.end
				moved = true
			}
		}
	}
	return t
}
