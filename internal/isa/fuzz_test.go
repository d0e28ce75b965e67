package isa

import (
	"bytes"
	"testing"
)

// FuzzISARoundTrip feeds arbitrary bytes to the decoder and pins four
// properties: DecodeInstr never panics; it agrees with the reference
// decoder on every input; everything it accepts re-encodes to exactly
// the bytes it consumed (the codec is bijective); and a second decode
// of the re-encoding yields the identical Instr.
func FuzzISARoundTrip(f *testing.F) {
	f.Add(EncodeStream([]Instr{
		{Op: Load, Addr: 0x7f001000, Size: 8, Dep1: 2},
		{Op: IntALU, Dep1: 1, Dep2: 4},
		{Op: Barrier, Aux: 24},
	}))
	f.Add([]byte{})
	for _, b := range decoderCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			agreesWithRef(t, rest)
			in, n, err := DecodeInstr(rest)
			if err != nil {
				return // rejection is fine; panicking or misdecoding is not
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(rest))
			}
			enc := AppendInstr(nil, in)
			if !bytes.Equal(enc, rest[:n]) {
				t.Fatalf("re-encode differs from input:\nin  % x\nout % x (instr %v)", rest[:n], enc, in)
			}
			back, m, err := DecodeInstr(enc)
			if err != nil || m != n || back != in {
				t.Fatalf("second decode disagrees: %v/%d/%v vs %v/%d", back, m, err, in, n)
			}
			rest = rest[n:]
		}
	})
}
