package flashsim_test

// One benchmark per row of the experiment table (the paper's tables and
// figures and this reproduction's own studies), plus simulator-speed and
// substrate benchmarks.
// Benchmarks run at ScaleQuick so `go test -bench=.` finishes in
// minutes; `flashsim validate` regenerates the full-scale numbers
// recorded in EXPERIMENTS.md.

import (
	"runtime"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/harness"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/snbench"
)

// session is shared across benchmarks so calibrations are reused.
var session = harness.NewSession(harness.ScaleQuick)

// BenchmarkExperiment runs every row of the experiment table
// (BenchmarkExperiment/figure1, ...) on the shared session.
func BenchmarkExperiment(b *testing.B) {
	for _, x := range harness.Experiments {
		if x.Name == "worksweep" {
			continue // 32-128 nodes: ~35 s an iteration even at quick sizes
		}
		b.Run(x.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, text, err := x.Run(session); err != nil || text == "" {
					b.Fatalf("empty row or error: %v", err)
				}
			}
		})
	}
}

// BenchmarkRunnerSpeedup runs the Figure-1 sweep serially and through a
// pool of GOMAXPROCS workers and reports the wall-clock speedup. On a
// uniprocessor host this hovers near 1.0x; on a 4+ core machine it
// should be well above 2x.
func BenchmarkRunnerSpeedup(b *testing.B) {
	sweep := func(pool *runner.Pool) {
		b.Helper()
		s := harness.NewSessionWithPool(harness.ScaleQuick, pool)
		if _, _, err := s.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		serial := runner.Serial()
		sweep(serial)
		par := runner.New(runtime.GOMAXPROCS(0), nil)
		sweep(par)
		speedup = serial.Stats().Wall.Seconds() / par.Stats().Wall.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
}

// --- Simulator speed and substrate benchmarks -------------------------

// benchRun reports simulated-instructions-per-second for one machine
// run — the simulator's own speed, the axis the paper trades against
// detail ("Mipsy runs 4-5 times faster than MXS").
func benchRun(b *testing.B, cfg machine.Config, mk func() emitter.Program) {
	b.Helper()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := machine.Run(cfg, mk())
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instructions
	}
	b.ReportMetric(float64(instrs), "sim-instrs/op")
}

func quickFFT(procs int) func() emitter.Program {
	return func() emitter.Program {
		return apps.FFT(apps.FFTOpts{LogN: 12, Procs: procs, TLBBlocked: true, Prefetch: true})
	}
}

func BenchmarkSimSpeedMipsy(b *testing.B) {
	benchRun(b, core.SimOSMipsy(1, 150, true), quickFFT(1))
}

func BenchmarkSimSpeedMXS(b *testing.B) {
	benchRun(b, core.SimOSMXS(1, true), quickFFT(1))
}

func BenchmarkSimSpeedSolo(b *testing.B) {
	benchRun(b, core.SoloMipsy(1, 150, true), quickFFT(1))
}

func BenchmarkSimSpeedHardwareModel(b *testing.B) {
	cfg := hw.Config(1, true)
	cfg.JitterPct = 0
	benchRun(b, cfg, quickFFT(1))
}

func BenchmarkAblationNUMAMemory(b *testing.B) {
	benchRun(b, core.WithNUMA(core.SimOSMipsy(4, 225, true)), func() emitter.Program {
		return apps.Radix(apps.RadixOpts{Keys: 16 << 10, Radix: 32, Procs: 4})
	})
}

func BenchmarkSnbenchChase(b *testing.B) {
	cfg := hw.Config(4, true)
	cfg.JitterPct = 0
	for i := 0; i < b.N; i++ {
		if _, err := machine.Run(cfg, snbench.DependentLoads(0)); err != nil {
			b.Fatal(err)
		}
	}
}
