package machine_test

import (
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/workload"
)

// BenchmarkRunWarm is machine.Run in a process that has run before: one
// warm-up run, then the loop. Run with -benchmem: B/op is what one more
// run of a study costs the allocator, the in-tree reading of what the
// benchmark's alloc_kb_per_op gates (fft-1p is a study-quick run,
// gups-32p an mp-contend run). The instruction slabs are not in it —
// they are the process's (emitter.slabPool) — so gups-32p reads 1.3 MB
// where it read 20.7 MB while every run made its own, fft-1p 192 KB for
// 794 KB.
func BenchmarkRunWarm(b *testing.B) {
	for _, c := range []struct {
		name, app string
		cfg       machine.Config
	}{
		{"fft-1p", "fft", core.SimOSMXS(1, true)},
		{"gups-32p", "gups", core.SimOSMipsy(32, 150, true)},
	} {
		b.Run(c.name, func(b *testing.B) {
			def, err := workload.Lookup(c.app)
			if err != nil {
				b.Fatal(err)
			}
			prog := quickProgram(b, def, c.cfg.Procs)
			run := func() {
				if _, err := machine.Run(c.cfg, prog); err != nil {
					b.Fatal(err)
				}
			}
			run() // warms the process
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
