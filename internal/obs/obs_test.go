package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flashsim/internal/cache"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/network"
	"flashsim/internal/osmodel"
	"flashsim/internal/proto"
	"flashsim/internal/sim"
	"flashsim/internal/tlb"
)

// sample is a finished run with something in every counter group.
func sample(config, workload string, procs int) machine.Result {
	r := machine.Result{
		Config:       config,
		Workload:     workload,
		Procs:        procs,
		Instructions: 100,
		Exec:         10,
		Total:        20,
		Metrics: machine.Metrics{
			Queue:   sim.QueueStats{Scheduled: 5, Fired: 5, Recycled: 4},
			Emitter: emitter.Stats{Batches: 2, Instructions: 100, SlabReuses: 1},
			L1:      cache.Stats{Hits: 90, Misses: 10},
			L2:      cache.Stats{Hits: 8, Misses: 2, Writebacks: 1},
			TLB:     tlb.Stats{Hits: 99, Misses: 1, Evictions: 1},
			Dir:     proto.DirStats{Reads: 7, Writes: 3, Transitions: 4},
			Net:     network.NetStats{Messages: 12, Bytes: 768, Hops: 24},
			OS:      osmodel.Counters{PagesMapped: 3, ColdFaults: 3, Syscalls: 1},
		},
	}
	r.Metrics.Dir.CaseCounts[proto.RemoteClean] = 7
	return r
}

// total is the Total row of a collector that recorded rs.
func total(rs ...machine.Result) RunMetrics {
	c := NewCollector()
	for _, r := range rs {
		c.Record(r)
	}
	return c.Snapshot().Total
}

// counterLeaves returns every uint64 under v by path, first setting each
// to next() when next is given. Labels (strings, ints) are skipped;
// anything else in the tree is something Merge and this test have not
// been taught.
func counterLeaves(t *testing.T, v reflect.Value, path string, next func() uint64, out map[string]uint64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			counterLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, next, out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			counterLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), next, out)
		}
	case reflect.Uint64:
		if next != nil {
			v.SetUint(next())
		}
		out[path] = v.Uint()
	case reflect.String, reflect.Int:
	default:
		t.Fatalf("%s is a %s: not a counter Merge can add", path, v.Kind())
	}
}

// TestMergeAccumulatesEveryGroup walks the report row by reflection:
// every uint64 in it, down through machine.Metrics and each subsystem's
// stats struct, must double when the row is added to itself and must
// appear in the Prometheus text. A counter added to a subsystem struct
// but left out of its Add, or out of WritePrometheus, fails here.
func TestMergeAccumulatesEveryGroup(t *testing.T) {
	if m := total(sample("mipsy", "fft", 4), sample("mipsy", "fft", 4)); m.Runs != 2 ||
		m.Config != "mipsy" || m.Workload != "fft" || m.Procs != 4 {
		t.Fatalf("labels/runs wrong after agreeing merge: %+v", m)
	}
	p := uint64(1000)
	nextPrime := func() uint64 {
	search:
		for {
			p++
			for d := uint64(2); d*d <= p; d++ {
				if p%d == 0 {
					continue search
				}
			}
			return p
		}
	}
	var m RunMetrics
	set := map[string]uint64{}
	counterLeaves(t, reflect.ValueOf(&m).Elem(), "RunMetrics", nextPrime, set)
	if len(set) < 40 {
		t.Fatalf("walk found only %d counters: %v", len(set), set)
	}

	sum := m
	sum.Merge(m)
	got := map[string]uint64{}
	counterLeaves(t, reflect.ValueOf(&sum).Elem(), "RunMetrics", nil, got)
	var text strings.Builder
	if err := (Report{Total: sum}).WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for path, v := range set {
		if got[path] != 2*v {
			t.Errorf("%s: %d added to itself = %d: missing from its struct's Add", path, v, got[path])
		}
		if !strings.Contains(text.String(), fmt.Sprintf(" %d\n", 2*v)) {
			t.Errorf("%s = %d is in no Prometheus sample: missing from WritePrometheus", path, 2*v)
		}
	}
}

// TestRecordOfSeenConfigAllocatesNothing: flashd records every job it
// serves, so a memo hit on a (config, workload, procs) the collector
// already has a row for must not allocate.
func TestRecordOfSeenConfigAllocatesNothing(t *testing.T) {
	c := NewCollector()
	r := sample("mipsy", "fft", 4)
	c.Record(r)
	if n := testing.AllocsPerRun(100, func() { c.Record(r) }); n != 0 {
		t.Fatalf("Record of an already-seen row allocates %v times", n)
	}
}

func TestMergeBlanksDisagreeingLabels(t *testing.T) {
	m := total(sample("mipsy", "fft", 4), sample("mxs", "ocean", 8))
	if m.Config != "" || m.Workload != "" || m.Procs != 0 {
		t.Fatalf("disagreeing labels must blank, got %+v", m)
	}
	if m.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", m.Runs)
	}
}

func TestCollectorPerConfigSplit(t *testing.T) {
	c := NewCollector()
	c.Record(sample("mipsy", "fft", 4))
	c.Record(sample("mipsy", "fft", 4))
	c.Record(sample("solo", "fft", 4))
	rep := c.Snapshot()
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %d", rep.Schema)
	}
	if rep.Total.Runs != 3 {
		t.Fatalf("total runs %d, want 3", rep.Total.Runs)
	}
	if len(rep.PerConfig) != 2 {
		t.Fatalf("per-config rows %d, want 2", len(rep.PerConfig))
	}
	// Sorted by config name: mipsy before solo.
	if rep.PerConfig[0].Config != "mipsy" || rep.PerConfig[0].Runs != 2 {
		t.Fatalf("row 0 = %+v", rep.PerConfig[0])
	}
	if rep.PerConfig[1].Config != "solo" || rep.PerConfig[1].Runs != 1 {
		t.Fatalf("row 1 = %+v", rep.PerConfig[1])
	}
}

func TestCollectorConcurrentRecord(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Record(sample("mipsy", "fft", 4))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Runs(); got != 800 {
		t.Fatalf("recorded %d runs, want 800", got)
	}
}

func TestSnapshotIsolatedFromLaterRecords(t *testing.T) {
	c := NewCollector()
	c.Record(sample("mipsy", "fft", 4))
	rep := c.Snapshot()
	c.Record(sample("mipsy", "fft", 4))
	if rep.Total.Dir.CaseCounts[proto.RemoteClean] != 7 {
		t.Fatalf("snapshot mutated by later Record: %v", rep.Total.Dir.CaseCounts)
	}
}

func TestReportWriteFileRoundTrips(t *testing.T) {
	c := NewCollector()
	c.Record(sample("mipsy", "fft", 4))
	rep := c.Snapshot()
	rep.Runner = RunnerCounters{Jobs: 1, Ran: 1}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Total.TLB.Misses != 1 || back.Runner.Jobs != 1 || back.Total.Dir.CaseCounts[proto.RemoteClean] != 7 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestReportWriteFileBadPath(t *testing.T) {
	var rep Report
	if err := rep.WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")); err == nil {
		t.Fatal("WriteFile to a missing directory must fail")
	}
}
