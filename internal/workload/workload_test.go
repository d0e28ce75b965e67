package workload_test

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/isa"
	"flashsim/internal/runner"
	"flashsim/internal/vm"
	"flashsim/internal/workload"
)

// TestRegistryNames: the registry carries every workload the study
// needs — the five original apps, the four server-class generators,
// and the three calibration microbenchmarks.
func TestRegistryNames(t *testing.T) {
	want := []string{
		"barnes", "cachemgmt", "fft", "gups", "lu", "ocean", "oltp",
		"snbench.dependent-loads", "snbench.restart", "snbench.tlb-timer",
		"webserve",
	}
	got := workload.Names()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry is missing %q (have %v)", w, got)
		}
	}
	if len(got) < 9 {
		t.Fatalf("registry has %d workloads, want at least 9", len(got))
	}
}

// TestLookupErrorListsNames: a typo'd name comes back with the full
// registered list, so the error is self-correcting.
func TestLookupErrorListsNames(t *testing.T) {
	_, err := workload.Lookup("fff")
	if err == nil {
		t.Fatal("lookup of unknown name succeeded")
	}
	for _, name := range []string{"fft", "gups", "snbench.restart"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	if _, err := workload.Lookup(""); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("empty name error = %v, want a 'missing' error listing names", err)
	}
}

// TestResolveValidation exercises the schema checks: unknown
// parameters, type mismatches, bounds, enums, and the coercions the
// JSON and CLI front ends rely on.
func TestResolveValidation(t *testing.T) {
	def, err := workload.Lookup("gups")
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string]map[string]any{
		"unknown param": {"logn": 12},
		"type mismatch": {"log_table": "twelve"},
		"bounds":        {"hot_pct": 150},
		"non-integral":  {"updates": 1.5},
	} {
		if _, err := def.Resolve(raw, false); err == nil {
			t.Errorf("%s: Resolve(%v) succeeded, want error", name, raw)
		}
	}
	// Coercions: JSON float64, CLI string, native int all land as int.
	v, err := def.Resolve(map[string]any{"log_table": float64(10), "updates": "128", "unplaced": "true"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int("log_table") != 10 || v.Int("updates") != 128 || !v.Bool("unplaced") {
		t.Errorf("coerced values wrong: %v", v)
	}
	// Defaults fill the rest; quick selects the quick sizes.
	q, err := def.Resolve(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if q.Int("log_table") != 14 || q.Int("updates") != 4096 {
		t.Errorf("quick defaults = %d/%d, want 14/4096", q.Int("log_table"), q.Int("updates"))
	}

	dl, err := workload.Lookup("snbench.dependent-loads")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dl.Resolve(map[string]any{"case": "nope"}, false); err == nil {
		t.Error("bad enum value accepted")
	}
	if _, err := dl.Resolve(map[string]any{"case": "remote-clean"}, false); err != nil {
		t.Errorf("valid enum value rejected: %v", err)
	}
}

// TestSpecResolves: a spec resolves through the registry at the scale
// asked for and builds its program at full scale; an unknown name or
// parameter is refused, and so is a wire body that is not an object.
func TestSpecResolves(t *testing.T) {
	spec := workload.Spec{Name: "fft", Params: map[string]any{"tlb_blocked": false}}
	def, quick, err := spec.Resolve(true)
	if err != nil || def.Name != "fft" || quick.Bool("tlb_blocked") {
		t.Fatalf("Resolve(quick): %v, %v, %v", def, quick, err)
	}
	_, full, err := spec.Resolve(false)
	if err != nil || full.Int("logn") == quick.Int("logn") {
		t.Fatalf("Resolve(full): logn %d against quick %d, err %v", full.Int("logn"), quick.Int("logn"), err)
	}
	prog, err := spec.Program(2)
	if want := def.Build(full, 2); err != nil || prog.FullName() != want.FullName() || prog.Threads != 2 {
		t.Errorf("Program(2) = %s on %d threads (err %v), want %s on 2", prog.FullName(), prog.Threads, err, want.FullName())
	}
	for _, bad := range []workload.Spec{{Name: "fff"}, {Name: "fft", Params: map[string]any{"nope": 1}}} {
		if _, err := bad.Program(1); err == nil {
			t.Errorf("%+v built a program", bad)
		}
	}
	var s workload.Spec
	if err := json.Unmarshal([]byte(`["fft"]`), &s); err == nil || !strings.Contains(err.Error(), "workload spec") {
		t.Errorf("a non-object decodes: %v", err)
	}
}

// TestSpecEncodesCanonically: the wire encoding is deterministic (the
// name first, then the parameters in sorted order) and round-trips
// through the spec's own decoder.
func TestSpecEncodesCanonically(t *testing.T) {
	for _, tc := range []struct {
		spec workload.Spec
		want string
	}{
		{workload.Spec{Name: "gups", Params: map[string]any{"updates": 128, "log_table": 10}}, `{"name":"gups","log_table":10,"updates":128}`},
		{workload.Spec{Name: "lu"}, `{"name":"lu"}`},
	} {
		data, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Errorf("Marshal = %s, want %s", data, tc.want)
		}
		var back workload.Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("round-trip: %v", err)
		}
		if again, _ := json.Marshal(back); string(again) != tc.want {
			t.Errorf("round-trip = %s, want %s", again, tc.want)
		}
	}
}

// drain collects every thread's instructions concurrently — drained one
// after another, the first thread would run the others through every
// barrier it passes and their whole streams would wait in memory — and
// returns them per thread.
func drain(t *testing.T, prog emitter.Program, visit func(thread int, in isa.Instr)) {
	t.Helper()
	_, streams := prog.Launch()
	defer streams.Abort()
	done := make(chan error, len(streams.Readers))
	for i, r := range streams.Readers {
		i, r := i, r
		go func() {
			for {
				in, ok := r.Next()
				if !ok {
					done <- nil
					return
				}
				visit(i, in)
			}
		}()
	}
	for range streams.Readers {
		<-done
	}
	streams.Wait()
	if err := streams.Err(); err != nil {
		t.Fatal(err)
	}
}

// streamHash summarizes a launch: one FNV hash and instruction count
// per thread, over every field of every instruction.
func streamHash(t *testing.T, prog emitter.Program, procs int) ([]uint64, []uint64) {
	t.Helper()
	counts := make([]uint64, procs)
	sums := make([]hash.Hash64, procs)
	for i := range sums {
		sums[i] = fnv.New64a()
	}
	drain(t, prog, func(th int, in isa.Instr) {
		var b [25]byte
		b[0] = byte(in.Op)
		putU64(b[1:], in.Addr)
		putU32(b[9:], in.Size)
		putU32(b[13:], in.Dep1)
		putU32(b[17:], in.Dep2)
		putU32(b[21:], in.Aux)
		sums[th].Write(b[:])
		counts[th]++
	})
	hashes := make([]uint64, procs)
	for i := range sums {
		hashes[i] = sums[i].Sum64()
	}
	return hashes, counts
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// TestDeterministicStreams is the registry-wide determinism property:
// for fixed parameters and thread count, two launches of any
// registered workload emit bit-identical per-thread instruction
// streams. Replay fingerprints, memoization, and sharded execution all
// assume this.
func TestDeterministicStreams(t *testing.T) {
	for _, def := range workload.All() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			vals, err := def.Resolve(nil, true)
			if err != nil {
				t.Fatal(err)
			}
			const procs = 4
			prog := def.Build(vals, procs)
			n := prog.Threads
			h1, c1 := streamHash(t, prog, n)
			h2, c2 := streamHash(t, def.Build(vals, procs), n)
			for i := 0; i < n; i++ {
				if c1[i] != c2[i] {
					t.Errorf("thread %d: %d instructions vs %d across launches", i, c1[i], c2[i])
				}
				if h1[i] != h2[i] {
					t.Errorf("thread %d: stream hash differs across launches", i)
				}
				if c1[i] == 0 {
					t.Errorf("thread %d emitted nothing", i)
				}
			}
		})
	}
}

// TestFirstTouchSpread: at server-class node counts, the generators
// that place their main data structure by first touch actually spread
// its pages across all nodes. For gups and oltp the spreading happens
// in the pre-BarrierStart initialization stripes (disjoint per thread,
// so cross-thread collection order is irrelevant); for webserve the
// heap arenas are per-thread for the whole run, so every heap touch
// attributes exactly.
func TestFirstTouchSpread(t *testing.T) {
	cases := []struct {
		name       string
		preBarrier bool           // collect only pre-BarrierStart touches
		over       map[string]any // quick defaults too small for 64 nodes
	}{
		// quick log_table 14 is only 32 pages; 16 gives 128, enough
		// for every node at both tested sizes to own at least one.
		{"gups", true, map[string]any{"log_table": 16}},
		{"oltp", true, nil},
		{"webserve", false, nil},
	}
	for _, procs := range []int{32, 64} {
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%s-%d", tc.name, procs), func(t *testing.T) {
				t.Parallel()
				def, err := workload.Lookup(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				vals, err := def.Resolve(tc.over, true)
				if err != nil {
					t.Fatal(err)
				}
				prog := def.Build(vals, procs)
				space, streams := prog.Launch()
				defer streams.Abort()

				// touches[i] holds thread i's addresses into first-touch
				// regions, in program order per thread.
				touches := make([][]uint64, procs)
				done := make(chan int, procs)
				for i, r := range streams.Readers {
					i, r := i, r
					go func() {
						defer func() { done <- i }()
						collect := true
						for {
							in, ok := r.Next()
							if !ok {
								return
							}
							if tc.preBarrier && in.Op == isa.Barrier && in.Aux == emitter.BarrierStart {
								collect = false
							}
							if collect && (in.Op == isa.Load || in.Op == isa.Store) {
								touches[i] = append(touches[i], in.Addr)
							}
						}
					}()
				}
				for range streams.Readers {
					<-done
				}
				streams.Wait()
				if err := streams.Err(); err != nil {
					t.Fatal(err)
				}

				// Translate only addresses inside first-touch regions,
				// each on the node of the thread that touched it.
				var ftRegions []emitter.Region
				for _, r := range space.Regions() {
					if r.Place.Kind == emitter.PlaceFirstTouch {
						ftRegions = append(ftRegions, r)
					}
				}
				if len(ftRegions) == 0 {
					t.Fatalf("%s has no first-touch region", tc.name)
				}
				inFT := func(a uint64) bool {
					for _, r := range ftRegions {
						if r.Contains(a) {
							return true
						}
					}
					return false
				}
				pt := vm.NewPageTable(space, procs, vm.NewSequentialAllocator(procs, 1))
				nodes := make(map[int32]bool)
				for th, addrs := range touches {
					for _, a := range addrs {
						if !inFT(a) {
							continue
						}
						pp, _ := pt.Translate(a, th) // bool = cold fault, not failure
						nodes[pp.Node] = true
					}
				}
				if len(nodes) != procs {
					t.Errorf("first-touch pages landed on %d/%d nodes", len(nodes), procs)
				}
			})
		}
	}
}

// TestEveryWorkloadParamReachesTheKey: a memoized run is keyed by
// runner.Fingerprint, which names the program by its FullName, so every
// parameter must reach that name or a run with a different value is
// served the old one's result. For each workload and each parameter, one
// value moves inside its bounds — an int halves (doubles when halving
// leaves the bounds), a bool flips, an enum takes another value — and
// the key must move with it.
func TestEveryWorkloadParamReachesTheKey(t *testing.T) {
	cfg := hw.Config(4, true)
	for _, def := range workload.All() {
		base, err := def.Resolve(nil, true)
		if err != nil {
			t.Fatal(err)
		}
		key := runner.Fingerprint(cfg, def.Build(base, 4))
		for _, p := range def.Params {
			var moved any
			switch v := base[p.Name].(type) {
			case int64:
				if moved = v / 2; v/2 < int64(p.Min) {
					moved = v * 2
				}
			case bool:
				moved = !v
			case string:
				moved = p.Enum[0]
				if moved == v {
					moved = p.Enum[1]
				}
			}
			vals, err := def.Resolve(map[string]any{p.Name: moved}, true)
			if err != nil {
				t.Fatalf("%s %s=%v: %v", def.Name, p.Name, moved, err)
			}
			if prog := def.Build(vals, 4); runner.Fingerprint(cfg, prog) == key {
				t.Errorf("%s: %s=%v keeps the key of %v (%s)", def.Name, p.Name, moved, base[p.Name], prog.FullName())
			}
		}
	}
}
