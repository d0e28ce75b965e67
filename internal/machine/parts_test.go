package machine_test

// The discipline of the machine parts' bins (parts.go), after the
// emitter's slab pool tests: a part a run gives back is, once the next
// build has reset it, the part New makes, whatever the run before did to
// it; and every part comes back at most once, only from a run that
// drained cleanly.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/machine"
	"flashsim/internal/workload"
)

// sizedProgram is a registry workload at its quick defaults with vals on
// top.
func sizedProgram(tb testing.TB, name string, procs int, vals map[string]any) emitter.Program {
	tb.Helper()
	def, err := workload.Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := def.Resolve(vals, true)
	if err != nil {
		tb.Fatal(err)
	}
	return def.Build(v, procs)
}

// partsRun is one machine.Run whose result a test compares.
type partsRun struct {
	cfg  machine.Config
	prog emitter.Program
}

func (r partsRun) result(t *testing.T) machine.Result {
	t.Helper()
	res, err := machine.Run(r.cfg, r.prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// withL2 is cfg with an L2 of size bytes.
func withL2(cfg machine.Config, size uint64) machine.Config {
	cfg.L2.Size = size
	return cfg
}

// TestRecycledPartsAreFresh runs A, then B with another geometry, then A
// and B again, each on the parts the run before gave back; each result
// must equal the one its run has from new parts, and the second pair
// makes no part. Then again with every part filled with junk before it
// goes back.
func TestRecycledPartsAreFresh(t *testing.T) {
	gups := func(procs int) emitter.Program {
		return sizedProgram(t, "gups", procs, map[string]any{"updates": 256})
	}
	fft2 := sizedProgram(t, "fft", 2, map[string]any{"logn": 10})
	cases := []struct {
		name string
		a, b partsRun
	}{
		{"1p vs 32p", partsRun{core.SimOSMipsy(1, 150, true), gups(1)}, partsRun{hw.Config(32, true), gups(32)}},
		{"l2 64K vs 256K", partsRun{withL2(core.SimOSMXS(2, true), 64<<10), fft2}, partsRun{withL2(core.SimOSMXS(2, true), 256<<10), fft2}},
		{"FlashLite vs NUMA", partsRun{core.SimOSMipsy(4, 150, true), gups(4)}, partsRun{core.WithNUMA(core.SimOSMipsy(4, 150, true)), gups(4)}},
	}
	for _, scribbled := range []bool{false, true} {
		for _, c := range cases {
			name := c.name
			if scribbled {
				name += "/scribbled"
			}
			t.Run(name, func(t *testing.T) {
				if scribbled {
					defer machine.ScribbleParts()()
				}
				var fresh [2]machine.Result
				for i, r := range []partsRun{c.a, c.b} {
					machine.DropFreeParts()
					fresh[i] = r.result(t)
				}
				machine.DropFreeParts()
				var made uint64
				for i, r := range []partsRun{c.a, c.b, c.a, c.b} {
					if i == 2 {
						_, _, made = machine.FreeParts()
					}
					if got := r.result(t); !reflect.DeepEqual(got, fresh[i%2]) {
						t.Errorf("run %d (%s) on recycled parts differs from its run on new ones:\n%v\n%+v\n%v\n%+v",
							i, "AB"[i%2:i%2+1], got, got.Metrics, fresh[i%2], fresh[i%2].Metrics)
					}
				}
				if _, _, again := machine.FreeParts(); again != made {
					t.Errorf("the second A and B made %d parts; the first pair's were not reused", again-made)
				}
			})
		}
	}
}

// checkBins holds the bins to their invariants: none over its bound and
// no part twice, in one bin or across two. It returns how many parts they
// hold and how many they have made.
func checkBins(t *testing.T) (held int, made uint64) {
	t.Helper()
	free, bound, made := machine.FreeParts()
	seen := map[any]string{}
	for name, parts := range free {
		if len(parts) > bound[name] {
			t.Errorf("bin %s holds %d parts, bound is %d", name, len(parts), bound[name])
		}
		for _, p := range parts {
			if other, ok := seen[p]; ok {
				t.Errorf("part %p is in bin %s and in bin %s", p, name, other)
			}
			seen[p] = name
		}
		held += len(parts)
	}
	return held, made
}

// TestEveryPartComesBackOnce runs each way out of a run from empty bins,
// so that every part the way takes is one the bins make: a run that
// drains cleanly gives each back once, and one that is refused before
// build, fails or panics gives none back.
func TestEveryPartComesBackOnce(t *testing.T) {
	cfg := core.SimOSMipsy(4, 150, true)
	gups4 := sizedProgram(t, "gups", 4, map[string]any{"updates": 1024})
	ways := []struct {
		name         string
		takes, gives bool
		run          func(t *testing.T)
	}{
		{"clean finish", true, true, func(t *testing.T) {
			if _, err := machine.Run(cfg, gups4); err != nil {
				t.Fatal(err)
			}
		}},
		{"config rejected before build", false, false, func(t *testing.T) {
			d := machine.NewExecutionDriver(cfg, sizedProgram(t, "fft", 2, map[string]any{"logn": 10}))
			if _, err := machine.RunWith(cfg, d); err == nil {
				t.Fatal("a 2-thread program ran on a 4-processor machine")
			}
		}},
		{"failed run", true, false, func(t *testing.T) {
			prog := emitter.Program{Name: "unlocks-a-free-lock", Threads: 4, Body: func(th *emitter.Thread, _ any) {
				th.IntOps(100)
				th.Unlock(3)
			}}
			if _, err := machine.Run(cfg, prog); err == nil || !strings.Contains(err.Error(), "unlocked free lock") {
				t.Fatalf("err = %v, want the free-lock unlock", err)
			}
		}},
		{"event-loop panic", true, false, func(t *testing.T) {
			d := &panickyDriver{Driver: machine.NewExecutionDriver(cfg, gups4)}
			defer func() {
				if r := recover(); r != "core exploded" {
					t.Errorf("recovered %v, want the core's panic", r)
				}
			}()
			machine.RunWith(cfg, d)
		}},
	}
	for _, w := range ways {
		t.Run(w.name, func(t *testing.T) {
			machine.DropFreeParts()
			_, before := checkBins(t)
			w.run(t)
			held, made := checkBins(t)
			made -= before
			if (made > 0) != w.takes {
				t.Fatalf("the way made %d parts; it takes parts: %v", made, w.takes)
			}
			if want := map[bool]int{true: int(made), false: 0}[w.gives]; held != want {
				t.Errorf("the way made %d parts and %d came back, want %d", made, held, want)
			}
		})
	}
}

// groupOfNine is nine 1p simulators, as many as study-quick's largest
// RunShared group has: the Mipsy ladder under Solo and SimOS at three
// clocks, MXS, the hardware reference, and a NUMA memory system.
func groupOfNine() []machine.Config {
	return []machine.Config{
		core.SoloMipsy(1, 150, true), core.SoloMipsy(1, 225, true), core.SoloMipsy(1, 300, true),
		core.SimOSMipsy(1, 150, true), core.SimOSMipsy(1, 225, true), core.SimOSMipsy(1, 300, true),
		core.SimOSMXS(1, true), hw.Config(1, true), core.WithNUMA(core.SimOSMipsy(1, 150, true)),
	}
}

// TestSharedGroupOfNine: study-quick's largest RunShared group, nine 1p
// simulators over one emission, twice, the second time on the parts the
// first gave back; every member's result is the one it gets alone, and
// the bins keep each part once. Run under -race.
func TestSharedGroupOfNine(t *testing.T) {
	cfgs := groupOfNine()
	if len(cfgs) != machine.KeptMachines {
		t.Fatalf("%d configs; the group the bins are sized for has %d", len(cfgs), machine.KeptMachines)
	}
	prog := sizedProgram(t, "fft", 1, map[string]any{"logn": 10})
	want := make([]machine.Result, len(cfgs))
	for k, cfg := range cfgs {
		res, err := machine.Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	machine.DropFreeParts()
	for pass := 0; pass < 2; pass++ {
		var mu sync.Mutex
		var errs []string
		machine.RunShared(cfgs, prog, func(k int, run func() (machine.Result, error)) {
			res, err := run()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				errs = append(errs, fmt.Sprintf("member %d: %v", k, err))
			case !reflect.DeepEqual(res, want[k]):
				errs = append(errs, fmt.Sprintf("member %d (%s): %v, alone %v", k, cfgs[k].Name, res, want[k]))
			}
		})
		for _, e := range errs {
			t.Errorf("pass %d: %s", pass, e)
		}
		if held, _ := checkBins(t); held != 4*len(cfgs) {
			t.Errorf("pass %d: the bins hold %d parts, want the group's %d", pass, held, 4*len(cfgs))
		}
	}
}
