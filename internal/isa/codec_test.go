package isa

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	ins := []Instr{
		{Op: Nop},
		{Op: IntALU, Dep1: 1},
		{Op: Load, Addr: 0xdeadbeef000, Size: 8, Dep1: 3, Dep2: 1},
		{Op: Store, Addr: 0x1000, Size: 4},
		{Op: Prefetch, Addr: 1},
		{Op: Barrier, Aux: 24},
		{Op: Syscall, Aux: 4001},
		{Op: Cop0},
	}
	enc := EncodeStream(ins)
	back, err := DecodeStream(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ins, back) {
		t.Fatalf("round trip changed the stream:\n%v\n%v", ins, back)
	}
	// Bijectivity: re-encoding lands on the same bytes.
	if again := EncodeStream(back); !reflect.DeepEqual(enc, again) {
		t.Fatalf("re-encoding differs:\n% x\n% x", enc, again)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"header only", []byte{byte(Load)}},
		{"bad opcode", []byte{byte(NumOps), 0}},
		{"unknown flag", []byte{byte(Nop), 0x80}},
		{"truncated field", []byte{byte(Load), flagAddr}},
		{"unterminated varint", []byte{byte(Load), flagAddr, 0x80}},
		{"zero present field", []byte{byte(Load), flagAddr, 0x00}},
		{"overlong varint", []byte{byte(Load), flagAddr, 0x81, 0x00}},
		{"size overflow", append([]byte{byte(Load), flagSize}, 0x80, 0x80, 0x80, 0x80, 0x10)},
		{"varint overflow", append([]byte{byte(Load), flagAddr},
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := DecodeInstr(c.b); err == nil {
				t.Fatalf("decode of % x succeeded", c.b)
			}
		})
	}
}

func TestEncodePanicsOnInvalidOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding an out-of-range op must panic")
		}
	}()
	AppendInstr(nil, Instr{Op: NumOps})
}

// refDecodeInstr is the closure-based decoder DecodeInto replaced,
// kept verbatim as the oracle: the two must agree on every input.
func refDecodeInstr(b []byte) (Instr, int, error) {
	var in Instr
	if len(b) < 2 {
		return in, 0, fmt.Errorf("isa: truncated instruction header (%d bytes)", len(b))
	}
	if Op(b[0]) >= NumOps {
		return in, 0, fmt.Errorf("isa: unknown opcode %d", b[0])
	}
	in.Op = Op(b[0])
	flags := b[1]
	if flags&^byte(flagsValid) != 0 {
		return in, 0, fmt.Errorf("isa: unknown presence bits %#x", flags&^byte(flagsValid))
	}
	n := 2
	field := func(name string, max uint64) (uint64, error) {
		v, w := binary.Uvarint(b[n:])
		if w <= 0 {
			return 0, fmt.Errorf("isa: bad varint for %s at offset %d", name, n)
		}
		// Reject overlong encodings (0x81 0x00 is 1 in two bytes):
		// canonicality is what makes the codec bijective.
		var tmp [binary.MaxVarintLen64]byte
		if binary.PutUvarint(tmp[:], v) != w {
			return 0, fmt.Errorf("isa: overlong varint for %s at offset %d", name, n)
		}
		n += w
		if v == 0 {
			return 0, fmt.Errorf("isa: non-canonical zero %s", name)
		}
		if v > max {
			return 0, fmt.Errorf("isa: %s %d overflows", name, v)
		}
		return v, nil
	}
	if flags&flagAddr != 0 {
		v, err := field("addr", 1<<64-1)
		if err != nil {
			return in, 0, err
		}
		in.Addr = v
	}
	if flags&flagSize != 0 {
		v, err := field("size", 1<<32-1)
		if err != nil {
			return in, 0, err
		}
		in.Size = uint32(v)
	}
	if flags&flagDep1 != 0 {
		v, err := field("dep1", 1<<32-1)
		if err != nil {
			return in, 0, err
		}
		in.Dep1 = uint32(v)
	}
	if flags&flagDep2 != 0 {
		v, err := field("dep2", 1<<32-1)
		if err != nil {
			return in, 0, err
		}
		in.Dep2 = uint32(v)
	}
	if flags&flagAux != 0 {
		v, err := field("aux", 1<<32-1)
		if err != nil {
			return in, 0, err
		}
		in.Aux = uint32(v)
	}
	return in, n, nil
}

// agreesWithRef requires DecodeInstr and refDecodeInstr to return the
// same instruction, byte count, and accept/reject verdict on b.
func agreesWithRef(t *testing.T, b []byte) {
	t.Helper()
	in, n, err := DecodeInstr(b)
	want, wantN, wantErr := refDecodeInstr(b)
	if in != want || n != wantN || (err == nil) != (wantErr == nil) {
		t.Fatalf("decoders disagree on % x:\nnew %v, %d, %v\nref %v, %d, %v", b, in, n, err, want, wantN, wantErr)
	}
}

// decoderCorpus is the differential seed set: one encoding per way a
// field can go wrong, in each position it can go wrong in.
func decoderCorpus() [][]byte {
	two32 := []byte{0x80, 0x80, 0x80, 0x80, 0x10} // 1<<32
	corpus := [][]byte{
		{byte(Load), flagAddr, 0x81, 0x00},             // overlong
		{byte(Load), flagAddr, 0x80, 0x00},             // overlong zero
		{byte(Load)},                                   // header cut after one byte
		{byte(Load), flagAddr | flagSize, 0x80, 0x80},  // field cut mid-varint
		{byte(Load), flagAddr | flagSize, 0x80, 0x01},  // second field missing
		{byte(NumOps), 0x00},                           // bad opcode
		{byte(Nop), 0xff},                              // unknown flags
		{byte(Nop), 0x00, 0xff},                        // trailing bytes
		append([]byte{byte(Load), flagAddr}, two32...), // fits: addr is 64-bit
		append([]byte{byte(Load), flagAddr}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), // 11-byte varint
		append([]byte{byte(Load), flagAddr}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),       // 1<<64 - 1
		append([]byte{byte(Load), flagAddr}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02),       // past 64 bits
		EncodeStream([]Instr{{Op: Load, Addr: 1<<64 - 1, Size: 1<<32 - 1, Dep1: 1<<32 - 1, Dep2: 1<<32 - 1, Aux: 1<<32 - 1}}),
	}
	for _, flag := range []byte{flagAddr, flagSize, flagDep1, flagDep2, flagAux} {
		corpus = append(corpus, []byte{byte(Store), flag, 0x00}) // present field holding zero
		if flag != flagAddr {
			corpus = append(corpus, append([]byte{byte(Store), flag}, two32...)) // 1<<32 in a 32-bit field
		}
		// The same defects behind a valid first field.
		if flag != flagAddr {
			corpus = append(corpus, []byte{byte(Store), flagAddr | flag, 0x7f, 0x00},
				[]byte{byte(Store), flagAddr | flag, 0x7f, 0x81, 0x00},
				[]byte{byte(Store), flagAddr | flag, 0x7f, 0x80})
		}
	}
	return corpus
}

func TestDecodeMatchesReference(t *testing.T) {
	for _, b := range decoderCorpus() {
		agreesWithRef(t, b)
	}
	// Every header, over a body of one- and two-byte varints.
	for op := 0; op < 256; op++ {
		for flags := 0; flags < 256; flags++ {
			agreesWithRef(t, []byte{byte(op), byte(flags), 0x01, 0x7f, 0x80, 0x01, 0xff, 0x7f, 0x05})
		}
	}
}

var sinkInstr Instr

// BenchmarkDecodeInstr decodes a stream with the field mix of a SPLASH
// kernel: 8-byte loads and stores with multi-byte addresses, short
// dependence distances, the odd sync op.
func BenchmarkDecodeInstr(b *testing.B) {
	var ins []Instr
	for i := 0; i < 4096; i++ {
		base := uint64(0x10_0000 + i*64)
		ins = append(ins,
			Instr{Op: Load, Addr: base, Size: 8, Dep1: 2},
			Instr{Op: IntALU, Dep1: 1, Dep2: 3},
			Instr{Op: FPMul, Dep1: 1},
			Instr{Op: Store, Addr: base + 8, Size: 8, Dep1: 2},
			Instr{Op: IntALU},
			Instr{Op: Branch, Dep1: 1})
		if i%64 == 63 {
			ins = append(ins, Instr{Op: Lock, Aux: uint32(i%8) + 1}, Instr{Op: Unlock, Aux: uint32(i%8) + 1})
		}
	}
	enc := EncodeStream(ins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rest := enc; len(rest) > 0; {
			n, err := DecodeInto(&sinkInstr, rest)
			if err != nil {
				b.Fatal(err)
			}
			rest = rest[n:]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ins)), "ns/instr")
	b.ReportMetric(float64(len(enc))/float64(len(ins)), "B/instr")
}
