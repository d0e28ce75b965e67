package machine_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"testing"

	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

// quickProgram builds a registry workload at its quick sizes for procs
// threads (microbenchmarks with an intrinsic thread count keep theirs).
func quickProgram(tb testing.TB, def *workload.Definition, procs int) emitter.Program {
	tb.Helper()
	vals, err := def.Resolve(nil, true)
	if err != nil {
		tb.Fatal(err)
	}
	return def.Build(vals, procs)
}

// registryPrograms is every registered workload at its quick sizes:
// between them they emit every op replay classifies — webserve's
// syscalls, oltp's and barnes's locks, gups's scattered updates,
// fft/lu/ocean prefetches, cachemgmt's CACHE ops.
func registryPrograms(tb testing.TB, procs int) []emitter.Program {
	tb.Helper()
	var progs []emitter.Program
	for _, def := range workload.All() {
		progs = append(progs, quickProgram(tb, def, procs))
	}
	return progs
}

// quickCapture captures the named registry workload at its quick sizes
// on a procs-processor replayConfig machine and returns the container.
func quickCapture(tb testing.TB, name string, procs int) []byte {
	tb.Helper()
	def, err := workload.Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog := quickProgram(tb, def, procs)
	_, data := captureInto(tb, replayConfig(prog.Threads), prog)
	return data
}

// refActions is the image builder PrepareReplay replaced — whole
// batches out of the cursor, every isa.Instr copied, actions grown by
// append, runs never split — kept as the oracle for the one-pass
// builder.
func refActions(tr *trace.Trace) (acts [][]machine.Action, tails []uint64, err error) {
	acts = make([][]machine.Action, tr.Threads())
	tails = make([]uint64, tr.Threads())
	for i := 0; i < tr.Threads(); i++ {
		cur := tr.Thread(i)
		var skip uint64
		for {
			batch, err := cur.NextBatch()
			if err != nil {
				return nil, nil, err
			}
			if batch == nil {
				break
			}
			for _, in := range batch {
				if in.Op.IsMem() || in.Op.IsSync() || in.Op == isa.Syscall {
					acts[i] = append(acts[i], machine.Action{Op: in.Op, Addr: in.Addr, Skip: skip, Arg: in.Aux})
					skip = 0
				} else {
					skip++
				}
			}
		}
		tails[i] = skip
	}
	return acts, tails, nil
}

// unsplit folds each compute-op action, which splits a long run, back
// into that run — the next action's skip, or the tail — and returns the
// actions, the tail and how many splits it folded.
func unsplit(acts []machine.Action, tail uint64) (out []machine.Action, _ uint64, splits int) {
	var run uint64
	for _, a := range acts {
		if a.Op.IsCompute() {
			run += a.Skip + 1
			splits++
			continue
		}
		a.Skip += run
		out, run = append(out, a), 0
	}
	return out, tail + run, splits
}

// sameAsReference fails unless img, its splits folded back, holds
// exactly the reference builder's actions and tails for tr, and it
// returns each thread's split count.
func sameAsReference(t *testing.T, tr *trace.Trace, img *machine.ReplayImage) (splits []int) {
	t.Helper()
	want, tails, err := refActions(tr)
	if err != nil {
		t.Fatalf("PrepareReplay accepted a trace the reference builder rejects: %v", err)
	}
	splits = make([]int, len(want))
	for i := range want {
		got, tail, n := unsplit(img.Actions(i))
		splits[i] = n
		if tail != tails[i] {
			t.Fatalf("thread %d: tail %d, reference %d", i, tail, tails[i])
		}
		if len(got) != len(want[i]) {
			t.Fatalf("thread %d: %d actions, reference %d", i, len(got), len(want[i]))
		}
		for k := range got {
			if got[k] != want[i][k] {
				t.Fatalf("thread %d action %d: %+v, reference %+v", i, k, got[k], want[i][k])
			}
		}
	}
	return splits
}

// TestPrepareReplayMatchesReference pins the one-pass image against the
// reference builder on every registry workload.
func TestPrepareReplayMatchesReference(t *testing.T) {
	for _, prog := range registryPrograms(t, 2) {
		prog := prog
		t.Run(prog.FullName(), func(t *testing.T) {
			t.Parallel()
			_, data := captureInto(t, replayConfig(prog.Threads), prog)
			tr, err := trace.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			img, err := machine.PrepareReplay(tr)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, tr, img)
		})
	}
}

// footerOf returns where a container's footer starts and the footer's
// top-level fields.
func footerOf(tb testing.TB, data []byte) (int, map[string]json.RawMessage) {
	tb.Helper()
	start := len(data) - 16 - int(binary.LittleEndian.Uint64(data[len(data)-16:len(data)-8]))
	var f map[string]json.RawMessage
	if err := json.Unmarshal(data[start:len(data)-16], &f); err != nil {
		tb.Fatal(err)
	}
	return start, f
}

// withActions returns the container with its footer's per-thread
// action counts rewritten by edit (nil drops the field), resealed.
func withActions(tb testing.TB, data []byte, edit func(acts []uint64) []uint64) []byte {
	tb.Helper()
	start, f := footerOf(tb, data)
	var acts []uint64
	if err := json.Unmarshal(f["Actions"], &acts); err != nil {
		tb.Fatal(err)
	}
	delete(f, "Actions")
	if acts = edit(acts); acts != nil {
		f["Actions"], _ = json.Marshal(acts)
	}
	body, err := json.Marshal(f)
	if err != nil {
		tb.Fatal(err)
	}
	out := append(bytes.Clone(data[:start]), body...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return append(out, data[len(data)-8:]...)
}

// FuzzPrepareReplay pins PrepareReplay's robustness on arbitrary
// containers: it never panics, it accepts exactly what the reference
// builder accepts, and what it accepts it images identically once
// split runs are folded back, at the action counts the index declares
// plus the splits. The seeds are
// trace.TestDecodeRejectsCorruption's mutants of a small real capture:
// two threads of the CACHE-op kernel, which holds loads, stores, cache
// ops and barriers.
func FuzzPrepareReplay(f *testing.F) {
	addPrepareSeeds(f)
	f.Fuzz(checkPrepare)
}

// FuzzPrepareReplaySplit is FuzzPrepareReplay with every compute run
// longer than 1 instruction split by a compute-op action: the seed
// capture's runs are at most 2 long, so a longer split length would
// leave its seeds whole.
func FuzzPrepareReplaySplit(f *testing.F) {
	addPrepareSeeds(f)
	f.Cleanup(machine.SetMaxActionSkip(1))
	f.Fuzz(checkPrepare)
}

// addPrepareSeeds seeds a PrepareReplay fuzz target.
func addPrepareSeeds(f *testing.F) {
	data := quickCapture(f, "cachemgmt", 2)
	f.Add(data)
	for _, n := range []int{0, 4, 8, 12, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	mutant := func(edit func(m []byte)) {
		m := bytes.Clone(data)
		edit(m)
		f.Add(m)
	}
	mutant(func(m []byte) { m[0] ^= 0xFF })
	mutant(func(m []byte) { binary.LittleEndian.PutUint32(m[8:12], trace.FormatVersion+1) })
	mutant(func(m []byte) { m[len(m)-1] ^= 0xFF })
	mutant(func(m []byte) { binary.LittleEndian.PutUint64(m[len(m)-16:len(m)-8], uint64(len(m))) })
	flen := binary.LittleEndian.Uint64(data[len(data)-16 : len(data)-8])
	for off := 12; off < len(data)-16-int(flen); off += 64 {
		mutant(func(m []byte) { m[off] ^= 0x01 })
	}
	tr, err := trace.Decode(data)
	if err != nil {
		f.Fatal(err)
	}
	// Action counts one over and one under the stream's, above the
	// thread's instructions, missing, and 2^40 in a small container.
	for _, edit := range []func(acts []uint64) []uint64{
		func(acts []uint64) []uint64 { acts[0]++; return acts },
		func(acts []uint64) []uint64 { acts[1]--; return acts },
		func(acts []uint64) []uint64 { acts[0] = tr.ThreadInstructions(0) + 1; return acts },
		func([]uint64) []uint64 { return nil },
		func(acts []uint64) []uint64 { acts[1] = 1 << 40; return acts },
	} {
		f.Add(withActions(f, data, edit))
	}
}

// checkPrepare is the PrepareReplay fuzz targets' body.
func checkPrepare(t *testing.T, data []byte) {
	tr, err := trace.Decode(data)
	if err != nil {
		return
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		if _, _, refErr := refActions(tr); refErr == nil {
			t.Fatalf("PrepareReplay rejects a trace the reference builder accepts: %v", err)
		}
		return
	}
	splits := sameAsReference(t, tr, img)
	for i := 0; i < tr.Threads(); i++ {
		if acts, _ := img.Actions(i); uint64(len(acts)) != tr.ThreadActions(i)+uint64(splits[i]) {
			t.Fatalf("thread %d: image holds %d actions, index declares %d and %d split runs",
				i, len(acts), tr.ThreadActions(i), splits[i])
		}
	}
}

// TestPrepareReplayAllocatesOnlyTheImage pins that the image is the
// one allocation PrepareReplay makes in proportion to the trace: each
// thread's action list is made once at its declared length, and one
// cursor's inflate buffer (the largest chunk) serves every thread. The
// slack covers the decompressor and its Huffman tables, the address
// space and the image's headers (≈ 145 KB measured). It runs on the lu
// 4p quick capture, replay-sweep's largest trace; the scratch buffer
// and per-thread cursors PrepareReplay once made were 11 MB more.
func TestPrepareReplayAllocatesOnlyTheImage(t *testing.T) {
	data := quickCapture(t, "lu", 4)
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	_, footer := footerOf(t, data)
	var chunks []struct{ Raw uint64 }
	if err := json.Unmarshal(footer["Chunks"], &chunks); err != nil {
		t.Fatal(err)
	}
	var largest uint64
	for _, ch := range chunks {
		largest = max(largest, ch.Raw)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	img, err := machine.PrepareReplay(tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const slack = 256 << 10
	got, bound := after.TotalAlloc-before.TotalAlloc, img.ActionBytes()+largest+slack
	if got > bound {
		t.Fatalf("PrepareReplay allocated %d bytes for a %d-byte image (largest chunk %d); bound %d",
			got, img.ActionBytes(), largest, bound)
	}
}

var sinkImage *machine.ReplayImage

// BenchmarkPrepareReplay times container -> replay image (index
// decode, inflate, CRC, codec validation, classification) on the lu 4p
// quick capture.
func BenchmarkPrepareReplay(b *testing.B) {
	data := quickCapture(b, "lu", 4)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		tr, err := trace.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if sinkImage, err = machine.PrepareReplay(tr); err != nil {
			b.Fatal(err)
		}
		instrs = tr.Instructions()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instrs), "ns/instr")
	b.ReportMetric(float64(len(data))/float64(instrs), "B/instr")
}

var sinkResult machine.Result

// BenchmarkRunReplay times one replay of the lu 4p quick image on the
// machine that captured it: the replay core, port and memory system
// with the trace already prepared.
func BenchmarkRunReplay(b *testing.B) {
	data := quickCapture(b, "lu", 4)
	tr, err := trace.Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	img, err := machine.PrepareReplay(tr)
	if err != nil {
		b.Fatal(err)
	}
	cfg := replayConfig(img.Threads())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkResult, err = machine.RunReplay(cfg, img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Instructions()), "ns/instr")
}
