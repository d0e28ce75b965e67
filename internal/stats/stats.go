// Package stats provides the small numeric helpers the experiment
// layers share: summaries over repeated runs (sum/mean) and
// relative-error metrics. DESIGN.md §2 lists it as the "means over
// repeats, relative-error metrics" package; core and runner use it
// instead of hand-rolling the same loops.
package stats

// Real is any ordered numeric type the helpers operate on (sim.Ticks,
// counters, float64 metrics).
type Real interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Sum returns the sum of xs (zero for an empty slice).
func Sum[T Real](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the average of xs (zero for an empty slice). For
// integer types the division truncates, matching the repeats-average
// semantics of core.Reference ("the average of at least 5 runs").
func Mean[T Real](xs []T) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	return Sum(xs) / T(len(xs))
}

// RelError returns the absolute relative error |pred-ref|/|ref| of a
// prediction against a reference value, or 0 when the reference is
// zero. RelError(rel, 1) recovers the |relative-1| form the comparison
// figures report.
func RelError(pred, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	e := (pred - ref) / ref
	if e < 0 {
		return -e
	}
	return e
}
