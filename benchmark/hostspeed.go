package main

import "time"

// This host's speed drifts. Measured over 14 minutes on the 2-vCPU KVM
// dev box with nothing else running, 30 s medians of a fixed chain of
// dependent loads over 16 MB moved 32.9–40.6 ms (23 %) while a
// register-only loop moved 24.0–26.3 ms (6 %): neighbours contending
// for the memory system, in episodes of minutes. A 32-node gups run
// followed the chain (30 s medians 257–338 ms, quartile spread 11 %;
// divided by the chain, 3.7 %), a uniprocessor fft run likewise
// (6.6 % → 2.9 %). No run length this benchmark can afford averages an
// episode out, so every reported timing is divided by the slowdown the
// host showed while it was taken: the chain is timed before, between
// and after the segments of a timed phase, and the phase's timings are
// divided by median chain time ÷ nominal. The chain uses no code of the
// repository, so nothing a change does to the simulator moves it.
// README.md has the measurements of what this removes and what it
// leaves.

const (
	chainLen   = 4 << 20 // uint32 entries = 16 MB
	chainSteps = 200_000

	// nominalChainMS is this host when quiet; scaled timings read as
	// "on the dev box at its quiet speed".
	nominalChainMS = 22.0
)

// slowdown is how much slower than nominal the host ran over a set of
// calibrations (1 = nominal).
func slowdown(chainMS []float64) float64 { return median(chainMS) / nominalChainMS }

// hostSpeed owns the calibration chain. A nil *hostSpeed always reports
// the nominal time, so scaled timings equal raw ones.
type hostSpeed struct {
	chain []uint32
	at    uint32
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// newHostSpeed lays out the chain: one cycle through all entries in
// pseudo-random order (Sattolo's algorithm, fixed seed).
func newHostSpeed() *hostSpeed {
	h := &hostSpeed{chain: make([]uint32, chainLen)}
	for i := range h.chain {
		h.chain[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := chainLen - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		h.chain[i], h.chain[j] = h.chain[j], h.chain[i]
	}
	return h
}

// measure walks chainSteps links on from where the last walk ended and
// returns the wall time in milliseconds.
func (h *hostSpeed) measure() float64 {
	if h == nil {
		return nominalChainMS
	}
	t0 := time.Now()
	p := h.at
	for i := 0; i < chainSteps; i++ {
		p = h.chain[p]
	}
	h.at = p
	return float64(time.Since(t0)) / 1e6
}
