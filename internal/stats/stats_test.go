package stats_test

import (
	"testing"

	"flashsim/internal/stats"
)

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
