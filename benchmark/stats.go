package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles are the candidates of the reporting rule, ascending.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// tailPercentile applies the reporting rule for timings: besides the
// median, report the highest percentile that still has at least ten
// samples beyond it. ok is false when even p90 has fewer (n < 100), in
// which case only the median is meaningful.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		// The tolerance keeps n*(1-c/100) from landing a hair under ten
		// through binary rounding (1000 samples at p99 is exactly ten).
		if float64(n)*(100-c)/100 >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// quartileSpread is the acceptance statistic of the benchmark contract:
// the distance between the first and third quartile as a share of the
// median, with the quartiles computed as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
