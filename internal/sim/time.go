// Package sim provides the discrete-event simulation substrate shared by
// every simulator in the study: a common time base, an event queue with
// deterministic ordering, and contention-modeling resources (servers and
// banked servers).
//
// The time base is chosen so that every clock in the FLASH system is an
// integral number of ticks: 1 tick = 1/900 GHz ≈ 1.111 ns. The 150 MHz
// R10000 is 6 ticks/cycle, the 225 and 300 MHz "sped up" Mipsy models are
// 4 and 3 ticks/cycle, and the 75 MHz MAGIC/system clock is 12
// ticks/cycle. Network and DRAM latencies quoted in nanoseconds convert
// exactly (50 ns = 45 ticks, 140 ns = 126 ticks).
package sim

import "fmt"

// Ticks is the simulation time unit: 1 tick = 1/900 GHz.
type Ticks uint64

// TickHz is the frequency of the simulation time base.
const TickHz = 900_000_000

// Forever is a time later than any reachable simulation time. It is used
// as the wake-up time of entities that are blocked (e.g. at a barrier).
const Forever = Ticks(1) << 62

// NS converts nanoseconds to ticks (0.9 ticks per ns), rounding to
// nearest. Latencies quoted in the FLASH documentation are multiples of
// 10/9 ns and convert exactly.
func NS(ns float64) Ticks {
	t := ns*0.9 + 0.5
	if t < 0 {
		return 0
	}
	return Ticks(t)
}

// ToNS converts ticks back to nanoseconds.
func ToNS(t Ticks) float64 { return float64(t) / 0.9 }

// Clock describes a synchronous clock domain derived from the tick base.
type Clock struct {
	// Period is the number of ticks per cycle of this clock.
	Period Ticks
}

// NewClock builds a clock for a frequency that divides the tick base
// exactly. It panics for frequencies that do not divide 900 MHz, because
// a non-integral period would accumulate drift between the processor and
// system clock domains.
func NewClock(mhz int) Clock {
	if mhz <= 0 || 900%mhz != 0 {
		panic(fmt.Sprintf("sim: clock %d MHz does not divide the 900 MHz tick base", mhz))
	}
	return Clock{Period: Ticks(900 / mhz)}
}

// Cycles converts a cycle count of this clock into ticks.
func (c Clock) Cycles(n uint64) Ticks { return Ticks(n) * c.Period }

// Align rounds t up to the next edge of this clock.
func (c Clock) Align(t Ticks) Ticks {
	r := t % c.Period
	if r == 0 {
		return t
	}
	return t + c.Period - r
}

// Common clocks in the study.
var (
	// Clock150 is the FLASH hardware R10000 clock.
	Clock150 = NewClock(150)
	// Clock225 is the "1.5x" Mipsy speedup used to compensate for ILP.
	Clock225 = NewClock(225)
	// Clock300 is the "2x" Mipsy speedup.
	Clock300 = NewClock(300)
	// Clock75 is the MAGIC node controller / system clock.
	Clock75 = NewClock(75)
)
