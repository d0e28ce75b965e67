package trace_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"flashsim/internal/emitter"
	"flashsim/internal/isa"
	"flashsim/internal/trace"
)

// synthStream builds a deterministic pseudo-random instruction stream
// exercising every op kind the codec records.
func synthStream(seed int64, n int) []isa.Instr {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]isa.Instr, n)
	ops := []isa.Op{
		isa.IntALU, isa.FPAdd, isa.Load, isa.Store, isa.Prefetch,
		isa.CacheOp, isa.Lock, isa.Unlock, isa.Barrier, isa.Syscall,
		isa.IntMul, isa.FPDiv,
	}
	for i := range ins {
		op := ops[rng.Intn(len(ops))]
		in := isa.Instr{Op: op}
		if op.IsMem() {
			in.Addr = rng.Uint64() >> 16
			in.Size = 8
		}
		if op.IsSync() || op == isa.Syscall || op == isa.CacheOp {
			in.Aux = uint32(rng.Intn(16))
		}
		if rng.Intn(4) == 0 {
			in.Dep1 = uint32(rng.Intn(64))
		}
		ins[i] = in
	}
	return ins
}

// writeContainer captures per-thread streams through the Tap interface
// (batched like the emitter would) and returns the sealed bytes.
func writeContainer(t *testing.T, meta trace.Meta, streams [][]isa.Instr) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 2048
	for th, ins := range streams {
		for lo := 0; lo < len(ins); lo += batch {
			hi := lo + batch
			if hi > len(ins) {
				hi = len(ins)
			}
			tw.Tap(th, ins[lo:hi])
		}
	}
	space := emitter.NewAddressSpace()
	space.AllocPageAligned("data", 1<<16, emitter.Placement{Kind: emitter.PlaceBlocked, Stride: 1 << 14})
	tw.SetLayout(space)
	if err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterReaderRoundTrip(t *testing.T) {
	// Enough instructions that thread 0 crosses the chunk-seal
	// threshold at least once (~3 bytes/instr encoded).
	streams := [][]isa.Instr{
		synthStream(1, 200_000),
		synthStream(2, 50_000),
		synthStream(3, 1),
	}
	meta := trace.Meta{Workload: "synthetic.v1", Threads: 3, Artifact: "abc123"}
	data := writeContainer(t, meta, streams)

	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta().Workload != "synthetic.v1" || tr.Meta().Artifact != "abc123" {
		t.Fatalf("meta lost: %+v", tr.Meta())
	}
	if tr.Threads() != 3 {
		t.Fatalf("threads = %d", tr.Threads())
	}
	if tr.Chunks() < 2 {
		t.Fatalf("expected multiple chunks, got %d", tr.Chunks())
	}
	var want uint64
	for i, ins := range streams {
		want += uint64(len(ins))
		if got := tr.ThreadInstructions(i); got != uint64(len(ins)) {
			t.Fatalf("thread %d: %d instructions recorded, want %d", i, got, len(ins))
		}
		var acts uint64
		for _, in := range ins {
			if !in.Op.IsCompute() {
				acts++
			}
		}
		if got := tr.ThreadActions(i); got != acts {
			t.Fatalf("thread %d: %d actions recorded, want %d", i, got, acts)
		}
	}
	if tr.Instructions() != want {
		t.Fatalf("total %d, want %d", tr.Instructions(), want)
	}
	// Batches: ceil(len/2048) per thread.
	wantBatches := uint64(0)
	for _, ins := range streams {
		wantBatches += uint64((len(ins) + 2047) / 2048)
	}
	if tr.Batches() != wantBatches {
		t.Fatalf("batches %d, want %d", tr.Batches(), wantBatches)
	}
	// Streams decode back bit-identically.
	for i, ins := range streams {
		cur := tr.Thread(i)
		var got []isa.Instr
		for {
			b, err := cur.NextBatch()
			if err != nil {
				t.Fatalf("thread %d: %v", i, err)
			}
			if b == nil {
				break
			}
			got = append(got, b...)
		}
		if !reflect.DeepEqual(got, ins) {
			t.Fatalf("thread %d stream did not round-trip (%d vs %d instrs)", i, len(got), len(ins))
		}
	}
	// Layout round-trips into an equivalent address space.
	want2 := emitter.NewAddressSpace()
	want2.AllocPageAligned("data", 1<<16, emitter.Placement{Kind: emitter.PlaceBlocked, Stride: 1 << 14})
	sp := tr.Layout().Space()
	if sp.Span() != want2.Span() {
		t.Fatalf("span %#x, want %#x", sp.Span(), want2.Span())
	}
	if !reflect.DeepEqual(sp.Regions(), want2.Regions()) {
		t.Fatalf("regions did not round-trip: %+v", sp.Regions())
	}
	if n, err := tr.Verify(); err != nil || n != want {
		t.Fatalf("Verify: %d, %v", n, err)
	}
}

func TestReadFileRoundTrip(t *testing.T) {
	streams := [][]isa.Instr{synthStream(7, 5000)}
	data := writeContainer(t, trace.Meta{Workload: "w", Threads: 1}, streams)
	path := filepath.Join(t.TempDir(), "x.fltr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Instructions() != 5000 {
		t.Fatalf("instructions %d", tr.Instructions())
	}
}

func TestWriterRejectsBadThreadCount(t *testing.T) {
	var buf bytes.Buffer
	if _, err := trace.NewWriter(&buf, trace.Meta{Threads: 0}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := trace.NewWriter(&buf, trace.Meta{Threads: 1 << 20}); err == nil {
		t.Fatal("huge thread count accepted")
	}
}

func TestFinishTwiceFails(t *testing.T) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Meta{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Finish(); err == nil {
		t.Fatal("second Finish accepted")
	}
}

// TestDecodeRejectsCorruption flips, truncates, and rewrites a valid
// container in targeted ways; every mutant must fail cleanly — either
// at Decode or when the affected stream is verified — and never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	streams := [][]isa.Instr{synthStream(11, 20_000), synthStream(12, 100)}
	data := writeContainer(t, trace.Meta{Workload: "w", Threads: 2}, streams)

	mustFail := func(name string, mutant []byte) {
		t.Helper()
		tr, err := trace.Decode(mutant)
		if err != nil {
			return
		}
		if _, err := tr.Verify(); err == nil {
			t.Fatalf("%s: corruption not detected", name)
		}
	}

	// Truncations at every structurally interesting boundary.
	for _, n := range []int{0, 4, 8, 12, len(data) / 2, len(data) - 1} {
		mustFail("truncate", data[:n])
	}
	// Bad magics and version.
	m := bytes.Clone(data)
	m[0] ^= 0xFF
	mustFail("magic", m)
	m = bytes.Clone(data)
	binary.LittleEndian.PutUint32(m[8:12], trace.FormatVersion+1)
	mustFail("version", m)
	m = bytes.Clone(data)
	m[len(m)-1] ^= 0xFF
	mustFail("end magic", m)
	// Oversized footer length.
	m = bytes.Clone(data)
	binary.LittleEndian.PutUint64(m[len(m)-16:len(m)-8], uint64(len(m)))
	mustFail("footer length", m)
	// Flip one byte in each 64-byte window of the chunk payload area
	// (everything between the header and the footer); each flip lands
	// in some chunk's compressed bytes, which the per-chunk CRC covers.
	// (Flips inside the footer's JSON strings can be semantically
	// benign — a renamed workload is a different but valid container —
	// so the sweep stops at the footer.)
	flen := binary.LittleEndian.Uint64(data[len(data)-16 : len(data)-8])
	footStart := len(data) - 16 - int(flen)
	for off := 12; off < footStart; off += 64 {
		m = bytes.Clone(data)
		m[off] ^= 0x01
		mustFail("bitflip", m)
	}
	// A per-thread action count off by one either way fails at Verify
	// (its cursor counts the stream's). The rewrite alone breaks nothing.
	if tr, err := trace.Decode(withActions(t, data, func(a []uint64) []uint64 { return a })); err != nil {
		t.Fatal(err)
	} else if _, err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	mustFail("actions+1", withActions(t, data, func(a []uint64) []uint64 { a[0]++; return a }))
	mustFail("actions-1", withActions(t, data, func(a []uint64) []uint64 { a[1]--; return a }))
	// A count above the thread's instructions, a missing one, and a
	// tiny container declaring 2^40 actions fail at Decode, before
	// anything is sized by the declaration.
	tiny := withActions(t, writeContainer(t, trace.Meta{Workload: "w", Threads: 1}, [][]isa.Instr{synthStream(13, 10)}),
		func(a []uint64) []uint64 { a[0] = 1 << 40; return a })
	for name, m := range map[string][]byte{
		"actions>instrs": withActions(t, data, func(a []uint64) []uint64 { a[1] = 101; return a }),
		"no actions":     withActions(t, data, func([]uint64) []uint64 { return nil }),
		"2^40 actions":   tiny,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := trace.Decode(m)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: Decode accepted it", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte container allocated %d bytes", name, len(m), n)
		}
	}
}

// withActions returns the container with its footer's per-thread
// action counts rewritten by edit (nil drops the field), resealed.
func withActions(t *testing.T, data []byte, edit func(acts []uint64) []uint64) []byte {
	t.Helper()
	start := len(data) - 16 - int(binary.LittleEndian.Uint64(data[len(data)-16:len(data)-8]))
	var f map[string]json.RawMessage
	if err := json.Unmarshal(data[start:len(data)-16], &f); err != nil {
		t.Fatal(err)
	}
	var acts []uint64
	if err := json.Unmarshal(f["Actions"], &acts); err != nil {
		t.Fatal(err)
	}
	delete(f, "Actions")
	if acts = edit(acts); acts != nil {
		f["Actions"], _ = json.Marshal(acts)
	}
	body, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	out := append(bytes.Clone(data[:start]), body...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return append(out, data[len(data)-8:]...)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := trace.Decode(bytes.Repeat([]byte{0xAB}, 4096)); err == nil {
		t.Fatal("garbage accepted")
	}
}
