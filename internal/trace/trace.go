// Package trace is the trace-capture container: a compact chunked file
// format for the emitter's per-thread instruction streams, enabling
// trace-driven simulation (capture once, replay many) next to the
// execution-driven mode the paper uses.
//
// # Container format (version 2)
//
//	offset 0:  8-byte magic "FLTRACE\n"
//	offset 8:  uint32 LE format version
//	offset 12: chunk payloads, back to back, in write order
//	           (each chunk: DEFLATE-compressed canonical isa codec
//	           bytes for a run of one thread's instructions)
//	...        footer: one JSON document (Meta, Layout, chunk index,
//	           per-thread instruction, batch and action counts)
//	...        uint64 LE footer length
//	...        8-byte end magic "FLTREND\n"
//
// The footer lives at the end so capture is a single append-only pass:
// the Writer streams compressed chunks as threads emit and seals the
// index when the run completes. Integrity is layered: magic + version
// at both ends, a CRC-32 (IEEE) per compressed chunk, exact
// decompressed-length and instruction-count accounting per chunk, a
// per-thread action count (the instructions that are not
// isa.Op.IsCompute; it sizes replay images) checked at stream end, and
// the canonical isa codec's own bijectivity checks per instruction.
// Decode validates all of it and returns errors — never panics — on
// arbitrary input (FuzzDecode pins this).
//
// # Compatibility rules
//
// FormatVersion identifies the container layout AND the stream
// semantics together. Readers accept exactly their own version:
// any change to the chunk layout, the footer schema, the isa codec,
// or the meaning of a recorded stream must bump FormatVersion, and a
// bumped version must never alias cache entries written by an older
// one (runner.TraceMeta folds the version into Meta.Artifact;
// TestTraceFingerprintSchemaVersioned pins this).
package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"flashsim/internal/emitter"
	"flashsim/internal/isa"
)

// FormatVersion is the container format version this package writes
// and the only one it reads.
const FormatVersion = 2

const (
	fileMagic  = "FLTRACE\n"
	endMagic   = "FLTREND\n"
	headerSize = len(fileMagic) + 4 // magic + uint32 version
	tailSize   = 8 + len(endMagic)  // uint64 footer length + end magic

	// chunkTarget is the raw (uncompressed) size at which a thread's
	// pending bytes are sealed into a chunk.
	chunkTarget = 256 << 10
	// maxChunkRaw bounds a chunk's declared decompressed size; a
	// legitimate writer never exceeds chunkTarget plus one encoded
	// batch, so 4 MiB is generous while keeping a malformed index from
	// demanding huge decode allocations.
	maxChunkRaw = 4 << 20
	// maxThreads bounds the declared thread count (decode sanity).
	maxThreads = 1 << 12
	// maxRegions bounds the declared region count (decode sanity).
	maxRegions = 1 << 16
)

// Meta identifies what a trace is a capture of. The Config snapshot
// and fingerprints are provenance recorded by the capturing layer
// (runner.TraceMeta); this package does not interpret them.
type Meta struct {
	// Workload is the program's FullName; Threads its thread count.
	Workload string
	Threads  int
	// Fingerprint is the capture run's runner.Fingerprint; Artifact is
	// the trace's own content address (computed by runner.TraceMeta),
	// which keys the replay-result memo entries derived from this trace.
	Fingerprint string `json:",omitempty"`
	Artifact    string `json:",omitempty"`
	// Config is the param canonical snapshot of the capture
	// configuration (schema-versioned, like the memo store key).
	Config json.RawMessage `json:",omitempty"`
	// Source optionally records a machine-readable workload spec so
	// tools can rebuild the execution-driven program for comparison.
	Source json.RawMessage `json:",omitempty"`
}

// RegionInfo is one recorded address-space region.
type RegionInfo struct {
	Name        string
	Base, Size  uint64
	PlaceKind   uint8
	PlaceNode   int
	PlaceStride uint64
}

// Layout is the recorded address-space shape: everything the OS model
// needs to rebuild page mapping for replay.
type Layout struct {
	Span    uint64
	Regions []RegionInfo
}

// LayoutOf snapshots an address space.
func LayoutOf(space *emitter.AddressSpace) Layout {
	regions := space.Regions()
	l := Layout{Span: space.Span(), Regions: make([]RegionInfo, len(regions))}
	for i, r := range regions {
		l.Regions[i] = RegionInfo{
			Name:        r.Name,
			Base:        r.Base,
			Size:        r.Size,
			PlaceKind:   uint8(r.Place.Kind),
			PlaceNode:   r.Place.Node,
			PlaceStride: r.Place.Stride,
		}
	}
	return l
}

// Space reconstructs the recorded address space.
func (l Layout) Space() *emitter.AddressSpace {
	regions := make([]emitter.Region, len(l.Regions))
	for i, r := range l.Regions {
		regions[i] = emitter.Region{
			Name: r.Name,
			Base: r.Base,
			Size: r.Size,
			Place: emitter.Placement{
				Kind:   emitter.PlacementKind(r.PlaceKind),
				Node:   r.PlaceNode,
				Stride: r.PlaceStride,
			},
		}
	}
	return emitter.RestoreAddressSpace(regions, l.Span)
}

// chunkInfo is one index entry: where a chunk's compressed payload
// lives and what it must decode to.
type chunkInfo struct {
	Thread int
	Offset int64
	Comp   int64
	Raw    int64
	Count  uint64
	CRC    uint32
}

// footer is the trailing JSON document sealing a container.
type footer struct {
	Meta   Meta
	Layout Layout
	Chunks []chunkInfo
	// Instrs, Batches and Actions record, per thread, the emitted
	// instructions, the flushed batches (replay reproduces the emitter
	// counters from them) and the non-compute instructions.
	Instrs  []uint64
	Batches []uint64
	Actions []uint64
}

// threadBuf accumulates one thread's pending raw bytes.
type threadBuf struct {
	raw     []byte
	count   uint64 // instructions in raw, not yet sealed
	total   uint64 // instructions recorded overall
	batches uint64
	actions uint64 // non-compute instructions recorded overall
	comp    bytes.Buffer
	fw      *flate.Writer
}

// Writer captures per-thread instruction streams into a container.
// Create with NewWriter, feed via Tap (typically through
// machine.RunCapture), then Finish. It is not safe for concurrent use;
// the emitter runs one thread, and so one Tap, at a time.
type Writer struct {
	meta     Meta
	layout   Layout
	threads  []*threadBuf
	w        io.Writer
	off      int64
	chunks   []chunkInfo
	err      error // sticky: the first failure
	finished bool
}

// NewWriter starts a container on w. meta.Threads must be the thread
// count of the program being captured.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if meta.Threads <= 0 || meta.Threads > maxThreads {
		return nil, fmt.Errorf("trace: invalid thread count %d", meta.Threads)
	}
	tw := &Writer{meta: meta, w: w, threads: make([]*threadBuf, meta.Threads)}
	for i := range tw.threads {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		tw.threads[i] = &threadBuf{fw: fw}
	}
	var hdr [headerSize]byte
	copy(hdr[:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[len(fileMagic):], FormatVersion)
	if err := tw.write(hdr[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Threads returns the thread count the writer was created for.
func (tw *Writer) Threads() int { return tw.meta.Threads }

// write appends b to the file, tracking the offset.
func (tw *Writer) write(b []byte) error {
	if tw.err != nil {
		return tw.err
	}
	n, err := tw.w.Write(b)
	tw.off += int64(n)
	tw.err = err
	return err
}

// Tap records one flushed batch of thread's stream. It satisfies
// emitter.Tap. Errors are sticky and surfaced by Finish (a tap has no
// error channel back into the emitting goroutine).
func (tw *Writer) Tap(thread int, batch []isa.Instr) {
	if tw.err != nil || thread < 0 || thread >= len(tw.threads) {
		return
	}
	tb := tw.threads[thread]
	for _, in := range batch {
		tb.raw = isa.AppendInstr(tb.raw, in)
		if !in.Op.IsCompute() {
			tb.actions++
		}
	}
	tb.count += uint64(len(batch))
	tb.total += uint64(len(batch))
	tb.batches++
	if len(tb.raw) >= chunkTarget {
		tw.sealChunk(thread, tb)
	}
}

// sealChunk compresses a thread's pending bytes and appends them as
// one indexed chunk, unless the writer has failed.
func (tw *Writer) sealChunk(thread int, tb *threadBuf) {
	if len(tb.raw) == 0 || tw.err != nil {
		return
	}
	tb.comp.Reset()
	tb.fw.Reset(&tb.comp)
	if _, err := tb.fw.Write(tb.raw); err != nil {
		tw.err = err
		return
	}
	if err := tb.fw.Close(); err != nil {
		tw.err = err
		return
	}
	payload := tb.comp.Bytes()
	info := chunkInfo{
		Thread: thread,
		Comp:   int64(len(payload)),
		Raw:    int64(len(tb.raw)),
		Count:  tb.count,
		CRC:    crc32.ChecksumIEEE(payload),
	}
	info.Offset = tw.off
	if err := tw.write(payload); err == nil {
		tw.chunks = append(tw.chunks, info)
	}
	tb.raw = tb.raw[:0]
	tb.count = 0
}

// SetLayout records the capture run's address space. Call once the
// program has launched (its Setup has run), before Finish.
func (tw *Writer) SetLayout(space *emitter.AddressSpace) {
	tw.layout = LayoutOf(space)
}

// Finish seals the container: it flushes every thread's pending bytes
// and writes the footer. Call only after the last Tap. The writer is
// unusable afterwards.
func (tw *Writer) Finish() error {
	if tw.finished {
		return fmt.Errorf("trace: Finish called twice")
	}
	tw.finished = true
	for i, tb := range tw.threads {
		tw.sealChunk(i, tb)
	}
	f := footer{
		Meta:    tw.meta,
		Layout:  tw.layout,
		Chunks:  tw.chunks,
		Instrs:  make([]uint64, len(tw.threads)),
		Batches: make([]uint64, len(tw.threads)),
		Actions: make([]uint64, len(tw.threads)),
	}
	for i, tb := range tw.threads {
		f.Instrs[i] = tb.total
		f.Batches[i] = tb.batches
		f.Actions[i] = tb.actions
	}
	body, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("trace: encoding footer: %w", err)
	}
	var tail [tailSize]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(len(body)))
	copy(tail[8:], endMagic)
	if err := tw.write(body); err != nil {
		return fmt.Errorf("trace: writing footer: %w", err)
	}
	if err := tw.write(tail[:]); err != nil {
		return fmt.Errorf("trace: writing footer: %w", err)
	}
	return tw.err
}
