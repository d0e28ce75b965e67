package snbench_test

import (
	"testing"

	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
	"flashsim/internal/snbench"
)

// Table 3 hardware latencies in nanoseconds.
var table3HW = map[proto.Case]float64{
	proto.LocalClean:        587,
	proto.LocalDirtyRemote:  2201,
	proto.RemoteClean:       1484,
	proto.RemoteDirtyHome:   2359,
	proto.RemoteDirtyRemote: 2617,
}

// TestDependentLoadLatencies checks that the hardware reference's
// dependent-load latencies have the Table 3 ordering (clean < dirty,
// local clean fastest, three-hop dirty-remote slowest) and are within a
// factor-two band of the paper's nanosecond values.
func TestDependentLoadLatencies(t *testing.T) {
	got := map[proto.Case]float64{}
	for c := range table3HW {
		cfg := hw.Config(snbench.CaseProcs(c), true)
		cfg.JitterPct = 0
		res, err := machine.Run(cfg, snbench.DependentLoads(c))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		got[c] = snbench.LoadLatencyNS(c, res)
		t.Logf("%-20v measured %6.0f ns (paper %4.0f ns)", c, got[c], table3HW[c])
	}
	if !(got[proto.LocalClean] < got[proto.RemoteClean]) {
		t.Errorf("local clean (%f) should be faster than remote clean (%f)",
			got[proto.LocalClean], got[proto.RemoteClean])
	}
	if !(got[proto.RemoteClean] < got[proto.RemoteDirtyRemote]) {
		t.Errorf("remote clean (%f) should be faster than remote dirty remote (%f)",
			got[proto.RemoteClean], got[proto.RemoteDirtyRemote])
	}
	if !(got[proto.LocalClean] < got[proto.LocalDirtyRemote]) {
		t.Errorf("local clean (%f) should be faster than local dirty remote (%f)",
			got[proto.LocalClean], got[proto.LocalDirtyRemote])
	}
	for c, want := range table3HW {
		if got[c] < want/2 || got[c] > want*2 {
			t.Errorf("%v: measured %.0f ns is outside 2x band of paper's %.0f ns", c, got[c], want)
		}
	}
}

// TestTLBTimerRecovers65Cycles checks the TLB microbenchmark measures
// the reference's 65-cycle handler within a few cycles.
func TestTLBTimerRecovers65Cycles(t *testing.T) {
	cfg := hw.Config(1, true)
	cfg.JitterPct = 0
	res, err := machine.Run(cfg, snbench.TLBTimer())
	if err != nil {
		t.Fatal(err)
	}
	cyc := snbench.TLBHandlerCycles(res, cfg.ClockMHz)
	t.Logf("measured TLB handler: %.1f cycles (configured 65)", cyc)
	if cyc < 55 || cyc > 80 {
		t.Errorf("TLB handler measured %.1f cycles, want ~65", cyc)
	}
}

// TestRestartThroughput checks independent loads overlap: with 4 MSHRs,
// mean inter-load time must be well under the dependent-load latency.
func TestRestartThroughput(t *testing.T) {
	cfg := hw.Config(1, true)
	cfg.JitterPct = 0
	res, err := machine.Run(cfg, snbench.Restart(1024))
	if err != nil {
		t.Fatal(err)
	}
	per := snbench.ThroughputNSPerLoad(res, 1024)
	t.Logf("independent-load throughput: %.0f ns/load", per)
	if per > 450 {
		t.Errorf("independent loads barely overlap: %.0f ns/load", per)
	}
}
