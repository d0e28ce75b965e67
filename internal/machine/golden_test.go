package machine_test

import (
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/machine"
	"flashsim/internal/memsys"
	"flashsim/internal/osmodel"
)

// golden is one pinned result per CPU-detail rung. The values were
// first recorded from the three-entry-point machine immediately before
// the Driver/RunWith seam landed, and re-pinned once when the windowed
// engine replaced the single global event loop.
//
// The windowed engine executes every shared-memory transaction at a
// window barrier in strict global (t, node, seq) order, where the old
// loop issued them in event-firing order with up to a quantum of
// causality skew, and it defers L2-miss fills to the barrier, so
// multiprocessor timings and hit counts legitimately moved in that
// transition (single-processor counters did not). These pins are the
// oracle that the engine has not drifted since: a regression here means
// timing changed, not just structure — any intentional semantic change
// must re-derive every row and say why in this comment's history.
type golden struct {
	exec, total int64
	instrs      uint64
	l1Hits      uint64
	l2Misses    uint64
	tlbMisses   uint64
}

func goldenConfig(procs int, os osmodel.Config) machine.Config {
	cfg := machine.Base(procs, true)
	cfg.Name = "golden"
	cfg.ClockMHz = 150
	cfg.OS = os
	cfg.Mem = machine.MemFlashLite
	cfg.FlashTiming = memsys.TrueTiming()
	return cfg
}

// TestEngineSeamMatchesPreRefactorGoldens pins execution-driven
// results at each CPU-detail rung (classic Mipsy, Mipsy with
// functional-unit latencies, MXS) and under both OS models against
// values recorded before the engine seam existed.
func TestEngineSeamMatchesPreRefactorGoldens(t *testing.T) {
	rungs := []struct {
		name  string
		procs int
		mut   func(*machine.Config)
		want  golden
	}{
		{"p1-mipsy", 1, func(c *machine.Config) {},
			golden{592751, 854173, 57858, 27632, 260, 9}},
		{"p1-mipsy-lat", 1, func(c *machine.Config) { c.ModelInstrLatency = true },
			golden{684911, 946333, 57858, 27632, 260, 9}},
		{"p1-mxs", 1, func(c *machine.Config) { c.CPU = machine.CPUMXS },
			golden{491395, 751227, 57858, 27632, 260, 9}},
		{"p2-mipsy", 2, func(c *machine.Config) {},
			golden{414053, 559025, 57864, 27418, 1669, 18}},
		{"p2-mipsy-lat", 2, func(c *machine.Config) { c.ModelInstrLatency = true },
			golden{453419, 598391, 57864, 27457, 1634, 18}},
		{"p2-mxs", 2, func(c *machine.Config) { c.CPU = machine.CPUMXS },
			golden{332491, 476665, 57864, 27550, 1509, 18}},
	}
	for _, rg := range rungs {
		rg := rg
		t.Run(rg.name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(rg.procs, osmodel.DefaultSimOS())
			rg.mut(&cfg)
			prog := apps.FFT(apps.FFTOpts{LogN: 10, Procs: rg.procs, TLBBlocked: true, Prefetch: true})
			res, err := machine.Run(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res, rg.want)
		})
	}

	t.Run("p2-solo-lu", func(t *testing.T) {
		t.Parallel()
		cfg := goldenConfig(2, osmodel.DefaultSolo())
		res, err := machine.Run(cfg, apps.LU(apps.LUOpts{N: 64, Procs: 2}))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, golden{1616174, 1641308, 279452, 138377, 400, 0})
	})
}

func checkGolden(t *testing.T, res machine.Result, want golden) {
	t.Helper()
	got := golden{
		exec:      int64(res.Exec),
		total:     int64(res.Total),
		instrs:    res.Instructions,
		l1Hits:    res.Metrics.L1.Hits,
		l2Misses:  res.Metrics.L2.Misses,
		tlbMisses: res.TLBMisses,
	}
	if got != want {
		t.Fatalf("diverged from pre-refactor golden:\ngot:  %+v\nwant: %+v", got, want)
	}
	if res.Sampled {
		t.Fatal("non-sampled run reported Sampled=true")
	}
}
