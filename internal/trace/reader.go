package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"flashsim/internal/emitter"
	"flashsim/internal/isa"
)

// Trace is a decoded container: validated metadata plus the raw file
// bytes, from which per-thread Cursors stream instructions on demand.
// A Trace is immutable and safe for concurrent use; each Cursor owns
// its own decode state.
type Trace struct {
	meta    Meta
	layout  Layout
	chunks  []chunkInfo
	instrs  []uint64
	batches []uint64
	// perThread lists chunk indices per thread, in stream order.
	perThread [][]int
	data      []byte
}

// ReadFile loads and validates a container from disk.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	t, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return t, nil
}

// Decode validates a container held in memory. The Trace retains data
// (chunks decompress lazily); the caller must not mutate it.
//
// Decode and the Cursors it hands out never panic on malformed input:
// every structural violation — bad magic, foreign version, truncated
// or overlapping ranges, CRC mismatch, short or overlong chunk
// payloads, count mismatches, codec errors — returns an error.
func Decode(data []byte) (*Trace, error) {
	if len(data) < headerSize+tailSize {
		return nil, fmt.Errorf("trace: container too short (%d bytes)", len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[len(fileMagic):headerSize]); v != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d (this build reads %d)", v, FormatVersion)
	}
	if string(data[len(data)-len(endMagic):]) != endMagic {
		return nil, fmt.Errorf("trace: bad end magic (truncated container?)")
	}
	flen := binary.LittleEndian.Uint64(data[len(data)-tailSize : len(data)-len(endMagic)])
	maxFooter := uint64(len(data) - headerSize - tailSize)
	if flen > maxFooter {
		return nil, fmt.Errorf("trace: footer length %d exceeds container", flen)
	}
	footStart := int64(len(data)-tailSize) - int64(flen)
	var f footer
	if err := json.Unmarshal(data[footStart:int64(len(data)-tailSize)], &f); err != nil {
		return nil, fmt.Errorf("trace: decoding footer: %w", err)
	}
	if f.Meta.Threads <= 0 || f.Meta.Threads > maxThreads {
		return nil, fmt.Errorf("trace: invalid thread count %d", f.Meta.Threads)
	}
	if len(f.Instrs) != f.Meta.Threads || len(f.Batches) != f.Meta.Threads {
		return nil, fmt.Errorf("trace: per-thread counters cover %d/%d threads, want %d",
			len(f.Instrs), len(f.Batches), f.Meta.Threads)
	}
	if len(f.Layout.Regions) > maxRegions {
		return nil, fmt.Errorf("trace: %d regions exceeds limit", len(f.Layout.Regions))
	}
	for _, r := range f.Layout.Regions {
		if r.Size == 0 || r.Base+r.Size < r.Base {
			return nil, fmt.Errorf("trace: region %q has invalid extent [%#x, +%d)", r.Name, r.Base, r.Size)
		}
	}
	t := &Trace{
		meta:      f.Meta,
		layout:    f.Layout,
		chunks:    f.Chunks,
		instrs:    f.Instrs,
		batches:   f.Batches,
		perThread: make([][]int, f.Meta.Threads),
		data:      data,
	}
	counted := make([]uint64, f.Meta.Threads)
	for i, ch := range f.Chunks {
		if ch.Thread < 0 || ch.Thread >= f.Meta.Threads {
			return nil, fmt.Errorf("trace: chunk %d belongs to thread %d of %d", i, ch.Thread, f.Meta.Threads)
		}
		if ch.Comp <= 0 || ch.Raw <= 0 || ch.Raw > maxChunkRaw {
			return nil, fmt.Errorf("trace: chunk %d has invalid sizes (comp=%d raw=%d)", i, ch.Comp, ch.Raw)
		}
		if ch.Offset < int64(headerSize) || ch.Offset+ch.Comp < ch.Offset || ch.Offset+ch.Comp > footStart {
			return nil, fmt.Errorf("trace: chunk %d range [%d, +%d) escapes payload area", i, ch.Offset, ch.Comp)
		}
		// Every encoded instruction is at least two bytes.
		if ch.Count == 0 || ch.Count > uint64(ch.Raw)/2 {
			return nil, fmt.Errorf("trace: chunk %d declares %d instructions in %d bytes", i, ch.Count, ch.Raw)
		}
		counted[ch.Thread] += ch.Count
		t.perThread[ch.Thread] = append(t.perThread[ch.Thread], i)
	}
	for th, n := range counted {
		if n != f.Instrs[th] {
			return nil, fmt.Errorf("trace: thread %d chunks sum to %d instructions, footer says %d", th, n, f.Instrs[th])
		}
	}
	return t, nil
}

// Meta returns the capture metadata.
func (t *Trace) Meta() Meta { return t.meta }

// Layout returns the recorded address-space layout.
func (t *Trace) Layout() Layout { return t.layout }

// Space reconstructs the recorded address space.
func (t *Trace) Space() *emitter.AddressSpace { return t.layout.Space() }

// Threads returns the thread count.
func (t *Trace) Threads() int { return t.meta.Threads }

// Workload returns the captured program's FullName.
func (t *Trace) Workload() string { return t.meta.Workload }

// Instructions returns the total recorded instruction count.
func (t *Trace) Instructions() uint64 {
	var n uint64
	for _, c := range t.instrs {
		n += c
	}
	return n
}

// ThreadInstructions returns thread i's recorded instruction count.
func (t *Trace) ThreadInstructions(i int) uint64 { return t.instrs[i] }

// Batches returns the total number of batches the capture flushed —
// exactly the batch count an execution-driven run's readers consume.
func (t *Trace) Batches() uint64 {
	var n uint64
	for _, c := range t.batches {
		n += c
	}
	return n
}

// Chunks returns the number of indexed chunks.
func (t *Trace) Chunks() int { return len(t.chunks) }

// Thread returns a cursor over thread i's recorded stream.
func (t *Trace) Thread(i int) *Cursor {
	return &Cursor{t: t, idxs: t.perThread[i]}
}

// Verify fully decodes every thread's stream, checking all integrity
// layers. It reports the total instruction count.
func (t *Trace) Verify() (uint64, error) {
	var total uint64
	var in isa.Instr
	for i := 0; i < t.Threads(); i++ {
		for cur := t.Thread(i); ; total++ {
			if ok, err := cur.Next(&in); err != nil {
				return total, fmt.Errorf("thread %d: %w", i, err)
			} else if !ok {
				break
			}
		}
	}
	return total, nil
}

// Cursor streams one thread's instructions chunk by chunk. Not safe
// for concurrent use; create one per consumer.
type Cursor struct {
	t    *Trace
	idxs []int
	next int
	raw  []byte // the current chunk, inflated
	rest []byte // its undecoded tail
	left uint64 // instructions the index says rest holds
	buf  []isa.Instr
	fr   io.ReadCloser
}

// nextChunk inflates the next chunk into c.rest (false at end of stream),
// checking its CRC, its exact length, and that nothing follows it.
func (c *Cursor) nextChunk() (bool, error) {
	if c.next >= len(c.idxs) {
		return false, nil
	}
	ch := c.t.chunks[c.idxs[c.next]]
	c.next++
	comp := c.t.data[ch.Offset : ch.Offset+ch.Comp]
	if crc := crc32.ChecksumIEEE(comp); crc != ch.CRC {
		return false, fmt.Errorf("trace: chunk CRC mismatch (have %#x, recorded %#x)", crc, ch.CRC)
	}
	if c.fr == nil {
		c.fr = flate.NewReader(bytes.NewReader(comp))
	} else if err := c.fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return false, fmt.Errorf("trace: resetting decompressor: %w", err)
	}
	if int64(cap(c.raw)) < ch.Raw {
		c.raw = make([]byte, ch.Raw)
	}
	c.raw = c.raw[:ch.Raw]
	if _, err := io.ReadFull(c.fr, c.raw); err != nil {
		return false, fmt.Errorf("trace: decompressing chunk: %w", err)
	}
	var extra [1]byte
	if n, _ := c.fr.Read(extra[:]); n != 0 {
		return false, fmt.Errorf("trace: chunk decompresses past its recorded %d bytes", ch.Raw)
	}
	c.rest, c.left = c.raw, ch.Count
	return true, nil
}

// Next decodes the stream's next instruction off the chunk bytes into
// *in (false at end of stream) — the one decode step of NextBatch,
// Verify and machine.PrepareReplay. A chunk fails as soon as its bytes
// and its declared instruction count part ways.
func (c *Cursor) Next(in *isa.Instr) (bool, error) {
	if len(c.rest) == 0 {
		if ok, err := c.nextChunk(); !ok {
			return false, err
		}
	}
	n, err := isa.DecodeInto(in, c.rest)
	if err != nil {
		return false, fmt.Errorf("trace: chunk byte %d: %w", len(c.raw)-len(c.rest), err)
	}
	c.rest, c.left = c.rest[n:], c.left-1
	if (c.left == 0) != (len(c.rest) == 0) {
		return false, fmt.Errorf("trace: chunk has %d bytes left for the %d instructions its index still expects", len(c.rest), c.left)
	}
	return true, nil
}

// NextBatch decodes the rest of the current chunk (all of the next one,
// unless Next has started it), reusing the cursor's internal buffer
// (valid until the following call). It returns nil at end of stream.
func (c *Cursor) NextBatch() ([]isa.Instr, error) {
	if len(c.rest) == 0 {
		if ok, err := c.nextChunk(); !ok {
			return nil, err
		}
	}
	if uint64(cap(c.buf)) < c.left {
		c.buf = make([]isa.Instr, c.left)
	}
	c.buf = c.buf[:c.left]
	for i := range c.buf {
		if _, err := c.Next(&c.buf[i]); err != nil {
			return nil, err
		}
	}
	return c.buf, nil
}
