package isa

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Binary codec for instruction streams.
//
// The emitter regenerates workloads on the fly, so the simulator never
// needs serialized programs — but trace files do: dumping a stream for
// offline diffing (two simulator versions fed the identical bytes) or
// archiving the exact instruction sequence behind a cached result. The
// encoding is compact and canonical: one opcode byte, one presence
// byte, then a uvarint per present field. A field is present iff it is
// nonzero, which makes the mapping bijective — every Instr has exactly
// one encoding and every valid encoding decodes to exactly one Instr —
// so round-trip equality can be checked bytewise in both directions.
//
// DecodeInstr never panics on arbitrary input; every malformed byte
// sequence returns an error (FuzzISARoundTrip pins this).

// Presence bits in the second encoding byte, one per optional field.
const (
	flagAddr = 1 << iota
	flagSize
	flagDep1
	flagDep2
	flagAux

	flagsValid = flagAddr | flagSize | flagDep1 | flagDep2 | flagAux
)

// AppendInstr appends the canonical encoding of in to dst and returns
// the extended slice. The instruction must be well-formed (Op < NumOps);
// encoding an out-of-range op is a programming error and panics, since
// no decoder could ever return it.
func AppendInstr(dst []byte, in Instr) []byte {
	if in.Op >= NumOps {
		panic(fmt.Sprintf("isa: encoding invalid op %d", uint8(in.Op)))
	}
	var flags byte
	if in.Addr != 0 {
		flags |= flagAddr
	}
	if in.Size != 0 {
		flags |= flagSize
	}
	if in.Dep1 != 0 {
		flags |= flagDep1
	}
	if in.Dep2 != 0 {
		flags |= flagDep2
	}
	if in.Aux != 0 {
		flags |= flagAux
	}
	dst = append(dst, byte(in.Op), flags)
	if in.Addr != 0 {
		dst = binary.AppendUvarint(dst, in.Addr)
	}
	if in.Size != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.Size))
	}
	if in.Dep1 != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.Dep1))
	}
	if in.Dep2 != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.Dep2))
	}
	if in.Aux != 0 {
		dst = binary.AppendUvarint(dst, uint64(in.Aux))
	}
	return dst
}

// DecodeInto decodes one instruction from the front of b into *in and
// returns the number of bytes consumed, so a decode loop copies no
// Instr on the way out. It rejects — with an error, never a panic —
// unknown opcodes, unknown presence bits, truncated or overlong
// varints, field values that overflow their type, and non-canonical
// encodings (a present field holding zero), leaving in *in the fields
// that precede the offending one.
func DecodeInto(in *Instr, b []byte) (n int, err error) {
	*in = Instr{}
	if len(b) < 2 {
		return 0, fmt.Errorf("isa: truncated instruction header (%d bytes)", len(b))
	}
	if Op(b[0]) >= NumOps {
		return 0, fmt.Errorf("isa: unknown opcode %d", b[0])
	}
	in.Op = Op(b[0])
	flags := b[1]
	if flags&^byte(flagsValid) != 0 {
		return 0, fmt.Errorf("isa: unknown presence bits %#x", flags&^byte(flagsValid))
	}
	n = 2
	var f [5]uint64 // addr, size, dep1, dep2, aux: the presence bits' order
	for m := flags; m != 0 && err == nil; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		// Most fields (sizes, dependence distances, ids) are one
		// nonzero byte; anything else goes through longField.
		if n < len(b) && b[n]-1 < 0x7f {
			f[i], n = uint64(b[n]), n+1
		} else if f[i], n = longField(b, n, i > 0); f[i] == 0 {
			n, err = 0, fmt.Errorf("isa: field %s at byte %d is a truncated, overlong, zero or overflowing varint",
				[...]string{"addr", "size", "dep1", "dep2", "aux"}[i], n)
		}
	}
	in.Addr, in.Size, in.Dep1, in.Dep2, in.Aux = f[0], uint32(f[1]), uint32(f[2]), uint32(f[3]), uint32(f[4])
	return n, err
}

// longField reads the field varint at b[n:] and returns its value and
// the offset after it, or 0 and n when the field must be rejected (a
// present field never holds zero, so zero is free to mean that).
func longField(b []byte, n int, is32 bool) (uint64, int) {
	v, w := binary.Uvarint(b[n:])
	// w <= 0 is a truncated varint or one past 64 bits. A varint whose
	// last byte is zero is the one-byte zero or overlong (0x81 0x00 is 1
	// in two bytes): canonicality is what makes the codec bijective.
	if w <= 0 || is32 && v > math.MaxUint32 || b[n+w-1] == 0 {
		return 0, n
	}
	return v, n + w
}
