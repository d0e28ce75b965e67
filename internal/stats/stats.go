// Package stats provides the relative-error metric the experiment
// layers share. DESIGN.md §2 lists it as the "relative-error metrics"
// package; core uses it instead of hand-rolling the same comparison.
package stats

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
