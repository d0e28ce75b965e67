package machine_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/proto"
)

// simosConfig is simpleConfig's SimOS sibling (hardware reference): TLB,
// coloring, and kernel costs enabled, so every counter group is live.
func simosConfig(procs int) machine.Config {
	cfg := hw.Config(procs, true)
	cfg.Name = "test-hw"
	return cfg
}

func TestRunMetricsPopulated(t *testing.T) {
	res, err := machine.Run(simosConfig(4), trivialProgram(4, 1<<15))
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "test-hw" || res.Workload == "" || res.Procs != 4 {
		t.Fatalf("labels wrong: %v", res)
	}
	m := res.Metrics
	if m.Queue.Scheduled == 0 || m.Queue.Fired == 0 || m.Queue.Recycled == 0 {
		t.Fatalf("queue counters empty: %+v", m.Queue)
	}
	if m.Queue.Fired > m.Queue.Scheduled {
		t.Fatalf("fired %d > scheduled %d", m.Queue.Fired, m.Queue.Scheduled)
	}
	if m.Emitter.Instructions == 0 || m.Emitter.Batches == 0 {
		t.Fatalf("emitter counters empty: %+v", m.Emitter)
	}
	if m.L1.Hits == 0 || m.L2.Misses == 0 {
		t.Fatalf("cache counters empty: L1=%+v L2=%+v", m.L1, m.L2)
	}
	// The working set (32K doubles = 64 pages/proc region) overflows a
	// 64-entry TLB across the barrier phases.
	if m.TLB.Misses == 0 || m.TLB.Hits == 0 {
		t.Fatalf("TLB counters empty under SimOS: %+v", m.TLB)
	}
	// The write-allocate pattern drives the directory through Writes
	// (reads of freshly written lines hit in cache, so Dir.Reads may
	// stay zero for this kernel).
	if m.Dir.Writes == 0 || m.Dir.Transitions == 0 {
		t.Fatalf("directory counters empty: %+v", m.Dir)
	}
	if m.Dir.CaseCounts == [proto.NumCases]uint64{} {
		t.Fatalf("no protocol cases recorded: %+v", m.Dir)
	}
	if m.Net.Messages == 0 || m.Net.Hops == 0 {
		t.Fatalf("network counters empty: %+v", m.Net)
	}
	if m.OS.PagesMapped == 0 || m.OS.ColdFaults == 0 {
		t.Fatalf("OS counters empty: %+v", m.OS)
	}
}

func TestRunMetricsZeroGroupsUnderSolo(t *testing.T) {
	res, err := machine.Run(simpleConfig(2), trivialProgram(2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// Solo has no TLB and free backdoor syscalls; those groups stay zero.
	if m.TLB.Hits != 0 || m.TLB.Misses != 0 {
		t.Fatalf("Solo model reported TLB traffic: %+v", m.TLB)
	}
	if m.OS.ColdFaults != 0 || m.OS.Syscalls != 0 {
		t.Fatalf("Solo model charged kernel events: %+v", m.OS)
	}
	if m.OS.PagesMapped == 0 {
		t.Fatalf("pages mapped must be counted under Solo too: %+v", m.OS)
	}
}

// TestRunMetricsDeterministic pins the metrics block into the
// determinism contract: two identical runs must produce bit-identical
// metrics, or memoized results would differ from fresh ones.
func TestRunMetricsDeterministic(t *testing.T) {
	cfg := simosConfig(4)
	a, err := machine.Run(cfg, trivialProgram(4, 1<<14))
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.Run(cfg, trivialProgram(4, 1<<14))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("metrics differ across identical runs:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

// TestRunMetricsSurvivesJSON pins the store round trip: a Result
// marshaled and unmarshaled (what runner.Store does on disk) keeps its
// metrics intact.
func TestRunMetricsSurvivesJSON(t *testing.T) {
	res, err := machine.Run(simosConfig(2), trivialProgram(2, 8192))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back machine.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Metrics, back.Metrics) {
		t.Fatalf("metrics lost in JSON round trip:\n%+v\n%+v", res.Metrics, back.Metrics)
	}
}

// TestCheckCoherenceCleanRun exercises the invariant checker through a
// whole machine run: real multiprocessor traffic with per-operation
// verification enabled must complete without a violation panic.
func TestCheckCoherenceCleanRun(t *testing.T) {
	cfg := simosConfig(4)
	cfg.CheckCoherence = true
	res, err := machine.Run(cfg, trivialProgram(4, 1<<14))
	if err != nil {
		t.Fatal(err)
	}
	if dir := res.Metrics.Dir; dir.Writes == 0 || dir.Transitions == 0 {
		t.Fatalf("invariant-checked run saw no directory traffic: %+v", dir)
	}
}

// TestCaseCountsArePortIssued records why Result.CaseCounts is not a
// copy of Metrics.Dir.CaseCounts, so nobody folds it: it is the sum of
// the memory ports' case counts, the data accesses they issued, while the
// directory also classifies the lock and barrier writes the machine
// sends to the memory system past the ports. Every registry workload
// crosses at least the start and end barriers, so the directory's total
// is strictly the larger on all of them. Result.TLBMisses, by contrast,
// is a copy, kept for its last reader, the frozen benchmark/probes.go.
func TestCaseCountsArePortIssued(t *testing.T) {
	type vec = [proto.NumCases]uint64
	pinned := map[string][2]vec{
		"snbench-loads/remote-clean":    {{0, 0, 256, 0, 0, 0}, {0, 3, 259, 3, 3, 0}},
		"webserve/req=48 pages=2 sys=6": {{1884, 131, 1034, 131, 271, 23}, {1886, 134, 1040, 134, 275, 37}},
	}
	for _, prog := range registryPrograms(t, 4) {
		res, perPort, err := machine.RunPorts(hw.Config(prog.Threads, true), prog)
		if err != nil {
			t.Fatalf("%s: %v", prog.FullName(), err)
		}
		var ports vec
		var portTotal, dirTotal uint64
		dir := res.Metrics.Dir.CaseCounts
		for _, p := range perPort {
			for c, n := range p {
				ports[c] += n
			}
		}
		if res.CaseCounts != ports {
			t.Errorf("%s: CaseCounts %v, ports sum to %v", prog.FullName(), res.CaseCounts, ports)
		}
		for c := range ports {
			if ports[c] > dir[c] {
				t.Errorf("%s: case %v: ports issued %d, directory saw %d", prog.FullName(), proto.Case(c), ports[c], dir[c])
			}
			portTotal += ports[c]
			dirTotal += dir[c]
		}
		if portTotal >= dirTotal {
			t.Errorf("%s: ports issued %d cases, directory classified %d: barrier writes missing", prog.FullName(), portTotal, dirTotal)
		}
		if want, ok := pinned[prog.FullName()]; ok && (ports != want[0] || dir != want[1]) {
			t.Errorf("%s: ports %v directory %v, pinned %v %v", prog.FullName(), ports, dir, want[0], want[1])
		}
		delete(pinned, prog.FullName())
		if res.TLBMisses != res.Metrics.TLB.Misses {
			t.Errorf("%s: TLBMisses %d, tree has %d", prog.FullName(), res.TLBMisses, res.Metrics.TLB.Misses)
		}
	}
	for name := range pinned {
		t.Errorf("pinned workload %q not in the registry", name)
	}
}
