package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestServerAgainstMD1 holds Server to a closed form that is not made of
// Server. Poisson arrivals presented in time order with a deterministic
// service time D are an M/D/1 queue, whose mean wait is ρD / 2(1−ρ)
// (Pollaczek–Khinchine); with arrivals in order there is no gap to
// backfill and the 48-interval merge only ever bridges the past, so the
// interval list must reproduce it — and, grant for grant, Lindley's
// recursion W' = max(0, W + D − A) over the same arrivals. The recursion
// is the exact check; the closed form is the one with no code of ours in
// it. 10⁶ requests leave the sample mean a standard error of ≈ 1.5 % at
// ρ = 0.9 (waits are correlated over ≈ 100 requests there: seeds 1–8
// read 4 484–4 600 against 4 500), so the seed is fixed.
//
// The jittered rows are recorded, not asserted: each request is
// presented in the same order but stamped up to k·D early or late, the
// bounded skew one synchronous transaction introduces, which is where
// backfill and the forced merge act. Run with -v to read what they do
// to the mean; only the invariants (no grant before its arrival, every
// grant D long) are checked there. Every wait is read off the grant,
// start − t.
func TestServerAgainstMD1(t *testing.T) {
	const (
		D = Ticks(1000)
		n = 1_000_000
	)
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		want := rho * float64(D) / (2 * (1 - rho))
		for _, k := range []int64{0, 1, 4, 16} {
			rng := rand.New(rand.NewSource(1))
			var s Server
			var clock, waited float64
			var prev, lindley int64 // Ticks is unsigned; the recursion and the jitter are not
			for i := 0; i < n; i++ {
				clock += rng.ExpFloat64() * float64(D) / rho
				arrive := int64(clock)
				if lindley += int64(D) - (arrive - prev); lindley < 0 || i == 0 {
					lindley = 0
				}
				prev = arrive
				if k > 0 {
					if arrive += rng.Int63n(2*k*int64(D)+1) - k*int64(D); arrive < 0 {
						arrive = 0
					}
				}
				at := Ticks(arrive)
				start, done := s.Acquire(at, D)
				if start < at || done != start+D {
					t.Fatalf("ρ=%.1f k=%d request %d: arrival %d granted [%d, %d)", rho, k, i, at, start, done)
				}
				if k == 0 && start-at != Ticks(lindley) {
					t.Fatalf("ρ=%.1f request %d: arrival %d waited %d ticks, Lindley's recursion gives %d", rho, i, at, start-at, lindley)
				}
				waited += float64(start - at)
			}
			mean := waited / n
			t.Logf("ρ=%.1f  skew ±%2d·D  mean wait %8.1f ticks = %.3f × M/D/1 (%.1f)", rho, k, mean, mean/want, want)
			if k == 0 && math.Abs(mean-want) > 0.02*want {
				t.Errorf("ρ=%.1f: in-order mean wait %.1f ticks, M/D/1 gives %.1f (off by %.1f %%)", rho, mean, want, 100*(mean-want)/want)
			}
		}
	}
}
