package core_test

import (
	"fmt"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/param"
)

// Example is the library's shape, as DESIGN.md §5 quotes it: the
// hardware reference, a study against it, the calibration loop, a trend
// study, and a registry delta. It has no Output line, so go test
// compiles it and does not run it.
func Example() {
	ref := core.NewReference(16, true) // the "hardware"; true = 1/16-scale caches
	fft := core.Workload{Name: "fft", Make: func(procs int) emitter.Program {
		return apps.FFT(apps.FFTOpts{LogN: 16, Procs: procs, TLBBlocked: true})
	}}

	study := core.NewStudy(ref, core.StandardConfigs(1, true)...) // Figures 1-4
	res, err := study.Compare([]core.Workload{fft}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.MaxAbsError())

	mipsy := core.SimOSMipsy(4, 150, true)
	cal, err := core.NewCalibrator(ref).Calibrate(mipsy) // closes the loop: snbench + TLB microbench fitting
	if err != nil {
		panic(err)
	}
	tuned := cal.Apply(mipsy)
	fmt.Print(cal.RenderDiff())

	trend := core.NewTrendAnalyzer(ref) // Figures 5-7
	procs := []int{1, 2, 4, 8, 16}
	hwCurve, err := trend.HardwareSpeedup(fft, procs)
	if err != nil {
		panic(err)
	}
	simCurve, err := trend.SimSpeedup(tuned, fft, procs)
	if err != nil {
		panic(err)
	}
	fmt.Println(core.CompareTrend(hwCurve, simCurve).MaxErr)

	// Every tunable is a registry path; calibrations are generic deltas.
	cfg2, err := param.ApplySettings(mipsy, []param.Setting{{Path: "os.tlb.handler_cycles", Value: "65"}})
	if err != nil {
		panic(err)
	}
	fmt.Print(param.RenderDeltas(param.Diff(mipsy, cfg2))) // os.tlb.handler_cycles 25 -> 65 cycles
}
