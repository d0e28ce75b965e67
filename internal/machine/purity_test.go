package machine_test

import (
	"bytes"
	"crypto/sha256"
	"hash"
	"reflect"
	"sync"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/emitter"
	"flashsim/internal/hw"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
)

// streamDigests runs prog on cfg and returns the SHA-256 of each
// thread's instruction stream as the tap sees it: the canonical isa
// encoding of every instruction, in order.
func streamDigests(t *testing.T, cfg machine.Config, prog emitter.Program) [][]byte {
	t.Helper()
	// A tap runs on its thread's goroutine and touches that thread's
	// entry only.
	threads := make([]struct {
		h   hash.Hash
		raw []byte
	}, prog.Threads)
	for i := range threads {
		threads[i].h = sha256.New()
	}
	prog.Tap = func(thread int, batch []isa.Instr) {
		e := &threads[thread]
		e.raw = e.raw[:0]
		for _, in := range batch {
			e.raw = isa.AppendInstr(e.raw, in)
		}
		e.h.Write(e.raw)
	}
	if _, err := machine.Run(cfg, prog); err != nil {
		t.Fatalf("%s on %s: %v", prog.FullName(), cfg.Name, err)
	}
	out := make([][]byte, prog.Threads)
	for i := range threads {
		out[i] = threads[i].h.Sum(nil)
	}
	return out
}

// sharedDigests launches prog once for sets reader sets and returns,
// per set, the SHA-256 of what each of its Readers reads: every Reader
// on its own goroutine, so no set waits for another's pace.
func sharedDigests(prog emitter.Program, sets int) [][][]byte {
	_, s := prog.LaunchShared(sets)
	defer s.Abort()
	out := make([][][]byte, sets)
	var wg sync.WaitGroup
	for k := range out {
		out[k] = make([][]byte, prog.Threads)
		for i, r := range s.Set(k) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := sha256.New()
				var raw []byte
				for b := r.NextBatch(); b != nil; b = r.NextBatch() {
					raw = raw[:0]
					for _, in := range b {
						raw = isa.AppendInstr(raw, in)
					}
					h.Write(raw)
				}
				out[k][i] = h.Sum(nil)
			}()
		}
	}
	wg.Wait()
	return out
}

// TestStreamsArePure pins what the paper's "same binary on every
// platform", trace content-addressing and every plan to share one
// stream between runs assume: a thread's instruction stream is a
// function of (workload, parameters, threads) and of nothing else. For
// every registry workload at 4 threads the per-thread digest is the same
// under the hardware reference, Solo-Mipsy at 300 MHz and SimOS-MXS —
// three machines that pace the emitters differently — and the same again
// on a second launch after a different workload has run, through slabs
// that workload left its instructions in. Every reader of an emission
// shared three ways reads that stream too.
func TestStreamsArePure(t *testing.T) {
	progs := registryPrograms(t, 4)
	for k, prog := range progs {
		n := prog.Threads
		want := streamDigests(t, hw.Config(n, true), prog)
		check := func(what string, cfg machine.Config) {
			got := streamDigests(t, cfg, prog)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s thread %d: stream under %s is %x, under hw %x", prog.FullName(), i, what, got[i][:6], want[i][:6])
				}
			}
		}
		check("solo-mipsy-300", core.SoloMipsy(n, 300, true))
		check("simos-mxs", core.SimOSMXS(n, true))
		other := progs[(k+1)%len(progs)]
		streamDigests(t, core.SimOSMipsy(other.Threads, 150, true), other)
		check("hw, relaunched after "+other.FullName(), hw.Config(n, true))
		for k, got := range sharedDigests(prog, 3) {
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s thread %d: reader set %d of 3 reads %x, a solo run %x", prog.FullName(), i, k, got[i][:6], want[i][:6])
				}
			}
		}
	}
}

// TestRunSharedMatchesRun: the members of one emission return what Run
// returns for each configuration alone, a member whose processor count
// is not the program's thread count included, and a member that never
// calls its run holds nobody up.
func TestRunSharedMatchesRun(t *testing.T) {
	prog := registryPrograms(t, 4)[0]
	cfgs := []machine.Config{hw.Config(4, true), core.SoloMipsy(2, 300, true), core.SimOSMXS(4, true), core.SimOSMipsy(4, 150, true)}
	got := make([]machine.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	machine.RunShared(cfgs, prog, func(k int, run func() (machine.Result, error)) {
		if k != 3 {
			got[k], errs[k] = run()
		}
	})
	for k, cfg := range cfgs[:3] {
		want, err := machine.Run(cfg, prog)
		if (err == nil) != (errs[k] == nil) || err != nil && err.Error() != errs[k].Error() {
			t.Errorf("%s: shared err %v, alone %v", cfg.Name, errs[k], err)
		}
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("%s: the shared run differs from the run alone", cfg.Name)
		}
	}
}
