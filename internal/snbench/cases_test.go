package snbench_test

import (
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
	"flashsim/internal/snbench"
)

// TestChaseExercisesExactlyTheIntendedCase: every dependent-load test
// must generate L2 misses classified (almost) exclusively as its own
// protocol case.
func TestChaseExercisesExactlyTheIntendedCase(t *testing.T) {
	for _, pc := range []proto.Case{
		proto.LocalClean, proto.LocalDirtyRemote, proto.RemoteClean,
		proto.RemoteDirtyHome, proto.RemoteDirtyRemote,
	} {
		cfg := hw.Config(snbench.CaseProcs(pc), true)
		cfg.JitterPct = 0
		res, err := machine.Run(cfg, snbench.DependentLoads(pc))
		if err != nil {
			t.Fatalf("%v: %v", pc, err)
		}
		want := uint64(snbench.ChaseCount(pc))
		got := res.CaseCounts[pc]
		// The chase loads must dominate this case's count (warming and
		// sync traffic contribute a handful of other cases).
		if got < want*9/10 {
			t.Errorf("%v: %d hits of case, want >= %d", pc, got, want*9/10)
		}
	}
}

func TestChaseCount(t *testing.T) {
	if got := snbench.ChaseCount(proto.LocalClean); got != 248 {
		t.Fatalf("clean chase skips page heads: %d", got)
	}
	if got := snbench.ChaseCount(proto.LocalDirtyRemote); got != 256 {
		t.Fatalf("dirty chase covers all lines: %d", got)
	}
}

func TestUntunedSimulatorsMispredictLatency(t *testing.T) {
	// The premise of Table 3: an untuned simulator disagrees with the
	// hardware on at least some protocol cases.
	cfg := core.SimOSMipsy(4, 150, true)
	hwCfg := hw.Config(4, true)
	hwCfg.JitterPct = 0
	worst := 0.0
	for _, pc := range []proto.Case{proto.LocalClean, proto.RemoteClean, proto.LocalDirtyRemote} {
		hwRes, err := machine.Run(hwCfg, snbench.DependentLoads(pc))
		if err != nil {
			t.Fatal(err)
		}
		simRes, err := machine.Run(cfg, snbench.DependentLoads(pc))
		if err != nil {
			t.Fatal(err)
		}
		rel := snbench.LoadLatencyNS(pc, simRes) / snbench.LoadLatencyNS(pc, hwRes)
		if d := rel - 1; d < 0 {
			d = -d
		} else if d > worst {
			worst = d
		}
		if rel > 1 && rel-1 > worst {
			worst = rel - 1
		} else if rel < 1 && 1-rel > worst {
			worst = 1 - rel
		}
	}
	if worst < 0.05 {
		t.Fatalf("untuned simulator suspiciously accurate: worst error %.1f%%", 100*worst)
	}
}
