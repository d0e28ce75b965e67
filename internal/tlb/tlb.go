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

import "slices"

// Config describes a TLB model.
type Config struct {
	// Entries is the number of TLB entries (R10000: 64).
	Entries int
}

// R10000 returns the hardware TLB configuration. The refill cost is the
// OS model's (osmodel.Config.TLBHandlerCycles), not the TLB's.
func R10000() Config { return Config{Entries: 64} }

// TLB is a fully associative TLB with exact LRU replacement.
//
// It sits on the critical path of every simulated memory access, so
// recency is tracked with per-slot stamps from a monotonic clock —
// a hit is one stamp store, a refill scans the arrays for the minimum
// stamp. The hit/miss/eviction sequence is identical to a
// recency-ordered list; only the bookkeeping differs.
type TLB struct {
	cfg    Config
	vps    []uint64 // resident virtual page numbers (unordered)
	stamps []uint64 // per-slot recency; larger = more recent
	clock  uint64
	// hint maps vp%hintSlots to the slot that last held such a page.
	// It is only a guess, checked against vps before it is trusted.
	hint  [hintSlots]uint16
	stats Stats
}

// hintSlots sizes the hint array. A slot number fits its uint16 up to
// the registry's largest TLB (4096 entries); a larger TLB stays exact,
// its truncated hints just miss and fall back to the scan.
const hintSlots = 64

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
	t := new(TLB)
	t.Reset(cfg)
	return t
}

// Reset makes t the empty TLB New(cfg) creates, in t's arrays when they
// are large enough.
func (t *TLB) Reset(cfg Config) {
	if cfg.Entries <= 0 {
		panic("tlb: Entries must be positive")
	}
	*t = TLB{
		cfg:    cfg,
		vps:    slices.Grow(t.vps[:0], cfg.Entries),
		stamps: slices.Grow(t.stamps[:0], cfg.Entries),
	}
}

// Access looks up virtual page vp, refilling on a miss. It reports
// whether the access hit.
func (t *TLB) Access(vp uint64) bool {
	t.clock++
	if i := t.lookup(vp); i >= 0 {
		t.hint[vp%hintSlots] = uint16(i)
		t.stats.Hits++
		t.stamps[i] = t.clock
		return true
	}
	t.stats.Misses++
	t.insert(vp)
	return false
}

// lookup returns vp's slot, or -1. A hit on the hinted slot costs one
// compare; any other page scans the slots, which are unordered (the
// stamps alone decide eviction).
func (t *TLB) lookup(vp uint64) int {
	if h := int(t.hint[vp%hintSlots]); h < len(t.vps) && t.vps[h] == vp {
		return h
	}
	for i, e := range t.vps {
		if e == vp {
			return i
		}
	}
	return -1
}

// Probe reports whether vp is resident without updating any state.
func (t *TLB) Probe(vp uint64) bool { return t.lookup(vp) >= 0 }

// insert adds vp, evicting the least recently used entry if full.
func (t *TLB) insert(vp uint64) {
	slot := len(t.vps)
	if slot == t.cfg.Entries {
		t.stats.Evictions++
		slot = 0
		for i, s := range t.stamps {
			if s < t.stamps[slot] {
				slot = i
			}
		}
		t.vps[slot] = vp
		t.stamps[slot] = t.clock
	} else {
		t.vps = append(t.vps, vp)
		t.stamps = append(t.stamps, t.clock)
	}
	t.hint[vp%hintSlots] = uint16(slot)
}

// Stats returns the accumulated counters.
func (t *TLB) Stats() Stats { return t.stats }

// Resident returns the number of valid entries.
func (t *TLB) Resident() int { return len(t.vps) }
