package flashsim_test

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benchmarks for the modeling choices DESIGN.md calls out.
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

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3DependentLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1InitialUni(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2BlockingFixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3TunedUni(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4TunedQuad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5FFTSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6RadixSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7Hotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentTLBCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.ExperimentTLBCost(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentBlockingFixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.ExperimentBlockingFixes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentMulDiv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := session.ExperimentMulDiv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExperimentDefects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := session.ExperimentDefects(); err != nil {
			b.Fatal(err)
		}
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

// --- Ablations and substrate benchmarks -----------------------------

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

func BenchmarkAblationNoInterlocks(b *testing.B) {
	cfg := hw.Config(1, true)
	cfg.JitterPct = 0
	cfg.MXS.ModelAddressInterlocks = false
	benchRun(b, cfg, quickFFT(1))
}

func BenchmarkAblationNoOccupancy(b *testing.B) {
	cfg := hw.Config(1, true)
	cfg.JitterPct = 0
	cfg.ModelL2InterfaceOccupancy = false
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
		if _, err := machine.Run(cfg, snbench.DependentLoads(0, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmitterThroughput(b *testing.B) {
	// Raw instruction-stream generation and consumption rate.
	for i := 0; i < b.N; i++ {
		s := emitter.Start(1, func(t *emitter.Thread) { t.IntOps(1 << 16) })
		n := 0
		for {
			if _, ok := s.Readers[0].Next(); !ok {
				break
			}
			n++
		}
		s.Wait()
		if n != 1<<16 {
			b.Fatal("short stream")
		}
	}
	b.ReportMetric(float64(1<<16), "instrs/op")
}
