// Package tlb models the R10000 translation lookaside buffer and the
// cost of its software refill handler.
//
// The paper identifies two distinct TLB modeling failures. Solo omits
// the TLB entirely ("the omission of the TLB ... was more than a
// second-order performance effect"). SimOS models the TLB but not the
// handler cost correctly: the real R10000 refill handler is 14
// instructions yet takes 65 cycles even when everything hits in the
// cache — exception entry/exit overhead, serial dependences, and
// pipeline-flushing coprocessor-0 instructions — while Mipsy charged 25
// cycles and MXS 35. The handler cost here is therefore an explicit,
// tunable parameter: the Calibrator fits it against the reference
// machine's TLB microbenchmark, reproducing the paper's tuning step.
package tlb

// Config describes a TLB model.
type Config struct {
	// Entries is the number of TLB entries (R10000: 64).
	Entries int
	// HandlerCycles is the charged cost of a refill, in processor
	// cycles. Real hardware: 65. Untuned Mipsy: 25. Untuned MXS: 35.
	HandlerCycles uint32
	// HandlerInstrs is the handler length in instructions (14 on the
	// R10000); informational, used for instruction accounting.
	HandlerInstrs uint32
}

// R10000 returns the hardware TLB configuration with the true handler
// cost.
func R10000() Config { return Config{Entries: 64, HandlerCycles: 65, HandlerInstrs: 14} }

// TLB is a fully associative TLB with exact LRU replacement.
//
// It sits on the critical path of every simulated memory access, so
// recency is tracked with per-slot stamps from a monotonic clock —
// a hit is one stamp store, a refill scans the (at most 64-entry)
// arrays for the minimum stamp. The hit/miss/eviction sequence is
// identical to a recency-ordered list; only the bookkeeping differs.
type TLB struct {
	cfg    Config
	vps    []uint64 // resident virtual page numbers (unordered)
	stamps []uint64 // per-slot recency; larger = more recent
	clock  uint64
	mru    int // slot of the last hit/refill, -1 when unknown
	stats  Stats
}

// Stats counts TLB activity. All zero under the Solo OS model, which
// omits the TLB.
type Stats struct {
	Hits   uint64
	Misses uint64
	// Evictions is the misses that displaced a resident entry.
	Evictions uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// New creates an empty TLB.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic("tlb: Entries must be positive")
	}
	return &TLB{
		cfg:    cfg,
		vps:    make([]uint64, 0, cfg.Entries),
		stamps: make([]uint64, 0, cfg.Entries),
		mru:    -1,
	}
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Access looks up virtual page vp, refilling on a miss. It reports
// whether the access hit. Consecutive accesses to one page are the
// common case, so the slot of the previous hit is checked before the
// full scan; the hit/miss/eviction sequence is unchanged.
func (t *TLB) Access(vp uint64) bool {
	if m := t.mru; m >= 0 && t.vps[m] == vp {
		t.stats.Hits++
		t.clock++
		t.stamps[m] = t.clock
		return true
	}
	if i := t.lookup(vp); i >= 0 {
		if i > 0 {
			// Move-to-front so alternating hot pages stay at the head
			// of the scan. Slot order is not semantically meaningful —
			// the stamps alone decide LRU eviction.
			t.vps[0], t.vps[i] = t.vps[i], t.vps[0]
			t.stamps[0], t.stamps[i] = t.stamps[i], t.stamps[0]
			i = 0
		}
		t.stats.Hits++
		t.clock++
		t.stamps[i] = t.clock
		t.mru = i
		return true
	}
	t.stats.Misses++
	t.insert(vp)
	return false
}

// lookup returns vp's slot, or -1. The arrays span at most eight cache
// lines, so a linear scan beats hashing here.
func (t *TLB) lookup(vp uint64) int {
	for i, e := range t.vps {
		if e == vp {
			return i
		}
	}
	return -1
}

// Probe reports whether vp is resident without updating any state.
func (t *TLB) Probe(vp uint64) bool { return t.lookup(vp) >= 0 }

// Invalidate removes vp if resident (e.g. on page remap).
func (t *TLB) Invalidate(vp uint64) {
	i := t.lookup(vp)
	if i < 0 {
		return
	}
	last := len(t.vps) - 1
	t.vps[i] = t.vps[last]
	t.stamps[i] = t.stamps[last]
	t.vps = t.vps[:last]
	t.stamps = t.stamps[:last]
	t.mru = -1
}

// Flush empties the TLB (context switch).
func (t *TLB) Flush() {
	t.vps = t.vps[:0]
	t.stamps = t.stamps[:0]
	t.mru = -1
}

// insert adds vp, evicting the least recently used entry if full.
func (t *TLB) insert(vp uint64) {
	t.clock++
	if len(t.vps) == t.cfg.Entries {
		t.stats.Evictions++
		victim := 0
		for i, s := range t.stamps {
			if s < t.stamps[victim] {
				victim = i
			}
		}
		t.vps[victim] = vp
		t.stamps[victim] = t.clock
		t.mru = victim
		return
	}
	t.vps = append(t.vps, vp)
	t.stamps = append(t.stamps, t.clock)
	t.mru = len(t.vps) - 1
}

// Stats returns the accumulated counters.
func (t *TLB) Stats() Stats { return t.stats }

// Resident returns the number of valid entries.
func (t *TLB) Resident() int { return len(t.vps) }
