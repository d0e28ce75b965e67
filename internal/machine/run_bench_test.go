package machine_test

import (
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/workload"
)

// BenchmarkRunWarm is a run in a process that has run before: one
// warm-up, then the loop. Run with -benchmem: B/op is what one more run
// of a study costs the allocator, the in-tree reading of what the
// benchmark's alloc_kb_per_op gates (fft-1p is a study-quick run,
// gups-32p an mp-contend run, shared-9x1p study-quick's largest
// RunShared group). The instruction slabs and the machines' parts are
// not in it: they are the process's (emitter.slabPool, parts.go). On a
// 2-vCPU x86-64 host gups-32p reads 97 KB where it read 1.32 MB while
// every run built its parts (20.7 MB while it also made its slabs),
// fft-1p 7.8 KB for 151 KB, and shared-9x1p 52 KB for 1.34 MB.
func BenchmarkRunWarm(b *testing.B) {
	fft, err := workload.Lookup("fft")
	if err != nil {
		b.Fatal(err)
	}
	gups, err := workload.Lookup("gups")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cfg machine.Config, def *workload.Definition) func() {
		prog := quickProgram(b, def, cfg.Procs)
		return func() {
			if _, err := machine.Run(cfg, prog); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func(b *testing.B) func()
	}{
		{"fft-1p", func(b *testing.B) func() { return run(b, core.SimOSMXS(1, true), fft) }},
		{"gups-32p", func(b *testing.B) func() { return run(b, core.SimOSMipsy(32, 150, true), gups) }},
		{"shared-9x1p", func(b *testing.B) func() {
			cfgs, prog := groupOfNine(), quickProgram(b, fft, 1)
			return func() {
				machine.RunShared(cfgs, prog, func(_ int, run func() (machine.Result, error)) {
					if _, err := run(); err != nil {
						b.Error(err)
					}
				})
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			run := c.run(b)
			run() // warms the process
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
