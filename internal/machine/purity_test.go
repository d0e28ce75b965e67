package machine_test

import (
	"bytes"
	"crypto/sha256"
	"hash"
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

// TestStreamsArePure pins what the paper's "same binary on every
// platform", trace content-addressing and every plan to share one
// stream between runs assume: a thread's instruction stream is a
// function of (workload, parameters, threads) and of nothing else. For
// every registry workload at 4 threads the per-thread digest is the same
// under the hardware reference, Solo-Mipsy at 300 MHz and SimOS-MXS —
// three machines that pace the emitters differently — and the same again
// on a second launch after a different workload has run, through slabs
// that workload left its instructions in.
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
	}
}
