package core_test

// Determinism and memoization guarantees of the runner-backed
// experiment layer: a Study sweep must be byte-identical whatever the
// worker count, and a warm store must satisfy a repeated sweep without
// a single new simulation.

import (
	"fmt"
	"reflect"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/runner"
)

// quickStudy runs a small two-config, one-workload comparison through
// the given pool and returns the result.
func quickStudy(t *testing.T, pool *runner.Pool) core.CompareResult {
	t.Helper()
	ref := core.NewReference(2, true)
	ref.Repeats = 2
	ref.Pool = pool
	study := core.NewStudy(ref, core.SimOSMipsy(1, 225, true), core.SoloMipsy(1, 225, true))
	res, err := study.Compare([]core.Workload{{Name: "fft", Make: smallFFT}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStudyIsDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := quickStudy(t, runner.New(1, nil))
	parallel := quickStudy(t, runner.New(8, nil))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("jobs=8 CompareResult differs from jobs=1")
	}
	// Byte-identical renderings, the form the figures are printed in.
	a, b := fmt.Sprintf("%#v", serial), fmt.Sprintf("%#v", parallel)
	if a != b {
		t.Fatalf("renderings differ:\n%s\n%s", a, b)
	}
}

func TestWarmStoreRunsNothingNew(t *testing.T) {
	store, err := runner.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(8, store)

	first := quickStudy(t, pool)
	cold := pool.Stats()
	if cold.Ran == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold sweep stats: %+v", cold)
	}

	second := quickStudy(t, pool)
	warm := pool.Stats().Sub(cold)
	if warm.Ran != 0 {
		t.Errorf("warm sweep performed %d new machine runs, want 0", warm.Ran)
	}
	if warm.Jobs == 0 || warm.CacheHits != warm.Jobs {
		t.Errorf("warm sweep served %d of %d jobs from the store, want all (%+v)", warm.CacheHits, warm.Jobs, warm)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memoized sweep differs from computed sweep")
	}
}

func TestReferencePoolMatchesSerialMeasurement(t *testing.T) {
	serialRef := core.NewReference(1, true)
	serialRef.Repeats = 3
	pooledRef := core.NewReference(1, true)
	pooledRef.Repeats = 3
	pooledRef.Pool = runner.New(4, nil)

	a, err := serialRef.Measure(smallFFT(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pooledRef.Measure(smallFFT(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pooled measurement %+v differs from serial %+v", b.Mean, a.Mean)
	}
	if a.Min > a.Mean || a.Mean > a.Max || a.Min == a.Max {
		t.Errorf("jitter summary implausible: min %d mean %d max %d", a.Min, a.Mean, a.Max)
	}
}
