package stats_test

import (
	"testing"

	"flashsim/internal/stats"
)

func TestSummaryHelpers(t *testing.T) {
	xs := []int64{7, 3, 11, 5}
	if got := stats.Sum(xs); got != 26 {
		t.Errorf("Sum = %d", got)
	}
	if got := stats.Mean(xs); got != 6 { // truncating, as the repeats average
		t.Errorf("Mean = %d", got)
	}
}

func TestEmptySlicesAreZero(t *testing.T) {
	var none []float64
	if stats.Sum(none) != 0 || stats.Mean(none) != 0 {
		t.Error("empty-slice summaries should all be zero")
	}
}

func TestFloatMean(t *testing.T) {
	if got := stats.Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("Mean = %g", got)
	}
}

func TestRelError(t *testing.T) {
	if got := stats.RelError(110, 100); got != 0.1 {
		t.Errorf("RelError(110,100) = %g", got)
	}
	if got := stats.RelError(90, 100); got != 0.1 {
		t.Errorf("RelError(90,100) = %g", got)
	}
	if got := stats.RelError(5, 0); got != 0 {
		t.Errorf("RelError with zero reference = %g", got)
	}
	// The |relative-1| form used by the comparison figures.
	if got := stats.RelError(1.25, 1); got != 0.25 {
		t.Errorf("RelError(1.25,1) = %g", got)
	}
}
