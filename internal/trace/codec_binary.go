package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/domino5g/domino/internal/sim"
)

// Binary columnar trace format ("DMNTRCB1").
//
// JSONL byte-scans text for every sample; at fleet ingest volume the
// codec is the ceiling. This file is the compact binary alternative.
// JSONL remains the compatibility path and the differential oracle:
// WriteBinary emits records in exactly WriteJSONL's merged order
// (forEachMerged), so either encoding of a set decodes to the same
// record stream — codec_binary_test.go and the root-package scenario
// differential pin that.
//
// A block on the wire is a trace.Block, column for column, and both
// directions go through one: the writer pends records in a Block's
// columns and flushBlock writes them with one put* call per column, the
// reader's decodeBlock fills a Block with one call per column in the
// same order. A record field is named once on each side (a stats field
// once for both, in wireColumns).
//
// Layout (all integers varint-encoded unless noted):
//
//	stream := magic frame*
//	magic  := "DMNTRCB1"                  (8 bytes, version in last byte)
//	frame  := kind(1B) payloadLen(uvarint) payload
//
// Frame kinds:
//
//	dict   (1): count, then count x (len, bytes). Strings append to the
//	            decoder's dictionary; IDs are assigned in order. The
//	            first dict frame interns the five series names followed
//	            by the cell (and scenario) name, so block tags are
//	            self-describing dictionary references.
//	header (2): cellID, scenarioID+1 (0 = none), duration (zigzag),
//	            flags byte (bit0 = HasGNBLog).
//	block  (3): n, then n tag bytes (dict IDs of series names, in the
//	            global merged record order), then for each series
//	            present, its column section (field-major: all
//	            timestamps, then all of field 2, ...). Timestamps are
//	            zigzag deltas against the previous record of the same
//	            series, carried across blocks. Ints are zigzag varints,
//	            unsigned fields uvarints, floats 8-byte little-endian
//	            IEEE 754 bits, and per-record bools are packed into one
//	            flags byte per record. Strings (gNB notes, RRC causes)
//	            are dictionary references; new strings are emitted in a
//	            dict frame immediately before the block that first uses
//	            them.
//	end    (4): total record count (header excluded) — lets the reader
//	            fail fast on truncation instead of silently returning a
//	            short stream.
const (
	binaryMagic = "DMNTRCB1"

	frameDict   = 1
	frameHeader = 2
	frameBlock  = 3
	frameEnd    = 4

	// defaultBinaryBlockSize is the number of records per block: large
	// enough to amortize per-block overheads (frame parse, column
	// setup, one batch push downstream), small enough that a streaming
	// consumer's watermark lag stays a fraction of a window.
	defaultBinaryBlockSize = 512

	// maxBinaryFramePayload bounds a single frame's length. The reader
	// allocates for the payload bytes that arrive, not for the length
	// a frame claims, so a corrupt or hostile prefix costs no more
	// memory than the bytes behind it.
	maxBinaryFramePayload = 1 << 27
)

// seriesNames are interned first by the writer, so a series' dictionary
// ID is its Series* index.
var seriesNames = [NumSeries]string{"dci", "gnb", "pkt", "stats", "rrc"}

// BinaryWriter encodes a trace stream into the binary columnar format:
// a header first, then records in timestamp order — copied into the
// pending block's columns, which go out every defaultBinaryBlockSize
// records — and Close to flush the final partial block and the end
// frame. The zero value is not usable; use NewBinaryWriter.
type BinaryWriter struct {
	w      *bufio.Writer
	dict   map[string]uint64
	nextID uint64
	fresh  []string // strings interned since the last dict frame

	blk      Block    // the records pending, in the columns flushBlock writes
	statInts []uint64 // their stats integer columns, transposed
	lastAt   [NumSeries]sim.Time
	total    uint64

	wroteHeader bool
	closed      bool
	scratch     []byte // frame payload build buffer, reused
	err         error
}

// NewBinaryWriter returns a streaming binary encoder over w. The
// caller must call Close to complete the stream.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	return &BinaryWriter{w: bw, dict: make(map[string]uint64, 16), scratch: make([]byte, 0, 1<<14)}
}

func (w *BinaryWriter) intern(s string) uint64 {
	if id, ok := w.dict[s]; ok {
		return id
	}
	id := w.nextID
	w.nextID++
	w.dict[s] = id
	w.fresh = append(w.fresh, s)
	return id
}

// flushDict emits a dict frame for strings interned since the last one.
func (w *BinaryWriter) flushDict() {
	if len(w.fresh) == 0 {
		return
	}
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, uint64(len(w.fresh)))
	for _, s := range w.fresh {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	w.fresh = w.fresh[:0]
	w.emitFrame(frameDict, b)
}

func (w *BinaryWriter) emitFrame(kind byte, payload []byte) {
	if w.err != nil {
		return
	}
	// payload aliases w.scratch; keep it alive across the writes.
	w.scratch = payload[:0]
	if err := w.w.WriteByte(kind); err != nil {
		w.err = err
		return
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := w.w.Write(lenBuf[:n]); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
	}
}

// WriteHeader emits the dictionary bootstrap and header frames. It
// must be called exactly once, before any record.
func (w *BinaryWriter) WriteHeader(h Header) error {
	if w.err != nil {
		return w.err
	}
	if w.wroteHeader {
		w.err = fmt.Errorf("trace: binary: duplicate header")
		return w.err
	}
	w.wroteHeader = true
	if _, err := w.w.WriteString(binaryMagic); err != nil {
		w.err = err
		return w.err
	}
	for _, s := range seriesNames {
		w.intern(s)
	}
	cellID := w.intern(h.CellName)
	scenRef := uint64(0)
	if h.Scenario != "" {
		scenRef = w.intern(h.Scenario) + 1
	}
	w.flushDict()
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, cellID)
	b = binary.AppendUvarint(b, scenRef)
	b = binary.AppendVarint(b, int64(h.Duration))
	var flags byte
	if h.HasGNBLog {
		flags |= 1
	}
	b = append(b, flags)
	w.emitFrame(frameHeader, b)
	return w.err
}

// WriteRecord appends one record to the stream. A Record carrying a
// Header is routed to WriteHeader; all other records require the
// header to have been written first. Records are expected in the same
// merged timestamp order WriteJSONL emits — the format stores
// per-series time deltas, so any order round-trips, but only sorted
// input keeps the encoding compact and the stream replayable.
func (w *BinaryWriter) WriteRecord(rec Record) error {
	if w.err != nil {
		return w.err
	}
	if rec.Header != nil {
		return w.WriteHeader(*rec.Header)
	}
	if !w.wroteHeader {
		w.err = fmt.Errorf("trace: binary: record before header")
		return w.err
	}
	// Strings are interned as they arrive, so dictionary IDs follow the
	// stream's order; the dict frame goes out ahead of the block.
	b := &w.blk
	switch b.add(rec) {
	case SeriesGNB:
		w.intern(rec.GNB.Note)
	case SeriesRRC:
		w.intern(rec.RRC.Cause)
	case -1:
		w.err = fmt.Errorf("trace: binary: empty record")
		return w.err
	}
	if len(b.Tags) >= defaultBinaryBlockSize {
		w.flushBlock()
	}
	return w.err
}

// Close flushes the final partial block, the end frame, and the
// underlying buffered writer. The writer is unusable afterwards.
func (w *BinaryWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if !w.wroteHeader {
		w.err = fmt.Errorf("trace: binary: close before header")
		return w.err
	}
	w.closed = true
	w.flushBlock()
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, w.total)
	w.emitFrame(frameEnd, b)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// The column encoders below are the column decoders (ints, times,
// strings) turned around; a flags column is its bytes.

// putInts appends a column of varints, zigzag-encoded when signed.
func putInts[T ~int | ~int64 | ~uint32 | ~uint64](b []byte, col []T, signed bool) []byte {
	for _, v := range col {
		if signed {
			b = binary.AppendVarint(b, int64(v))
		} else {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

// putTimes appends a column of times as zigzag deltas against *last
// (the series' previous timestamp, carried across blocks).
func putTimes(b []byte, col []sim.Time, last *sim.Time) []byte {
	t := *last
	for _, at := range col {
		b = binary.AppendVarint(b, int64(at-t))
		t = at
	}
	*last = t
	return b
}

// putStrings appends a column of dictionary references; WriteRecord
// interned every string of it.
func (w *BinaryWriter) putStrings(b []byte, col []string) []byte {
	for _, s := range col {
		b = binary.AppendUvarint(b, w.dict[s])
	}
	return b
}

// The stats section is a time column, a flags column, then statsFloats
// float columns and statsSigned + statsUnsigned integer columns.
const statsFloats, statsSigned, statsUnsigned = 11, 5, 2

// wireColumns lists the fields of a stats row behind those columns, in
// wire order. The writer and decodeBlock both transpose through it, so
// it is the one place that names them to the binary codec.
func (r *WebRTCStatsRecord) wireColumns() (f [statsFloats]*float64, n [statsSigned]*int, u [statsUnsigned]*uint64) {
	return [...]*float64{&r.InboundFPS, &r.OutboundFPS, &r.VideoJBDelayMs, &r.AudioJBDelayMs, &r.MinJBDelayMs, &r.FreezeTotalMs,
			&r.TargetBitrateBps, &r.PushbackRateBps, &r.TrendlineSlope, &r.TrendlineThreshold, &r.AckedBitrateBps},
		[...]*int{&r.OutboundHeight, &r.InboundHeight, &r.OutstandingBytes, &r.CongestionWindow, (*int)(&r.GCCNetState)},
		[...]*uint64{&r.ConcealedSamples, &r.TotalSamples}
}

// flushBlock writes the pending block as (optionally) a dict frame
// followed by one block frame: decodeBlock, column for column.
func (w *BinaryWriter) flushBlock() {
	blk := &w.blk
	if w.err != nil || len(blk.Tags) == 0 {
		return
	}
	w.flushDict()
	b := binary.AppendUvarint(w.scratch[:0], uint64(len(blk.Tags)))
	b = append(b, blk.Tags...)

	d := &blk.DCI
	b = putTimes(b, d.At, &w.lastAt[SeriesDCI])
	b = putInts(b, d.Dir, true)
	b = putInts(b, d.RNTI, false)
	b = putInts(b, d.OwnPRB, true)
	b = putInts(b, d.OtherPRB, true)
	b = putInts(b, d.MCS, true)
	b = putInts(b, d.TBSBits, true)
	b = putInts(b, d.UsedBits, true)
	b = append(b, d.Flags...)

	g := &blk.GNB
	b = putTimes(b, g.At, &w.lastAt[SeriesGNB])
	b = putInts(b, g.Kind, true)
	b = putInts(b, g.Dir, true)
	b = putInts(b, g.BufferBytes, true)
	b = putInts(b, g.RNTI, false)
	b = w.putStrings(b, g.Note)

	p := &blk.Pkt
	b = putTimes(b, p.SentAt, &w.lastAt[SeriesPkt])
	// Arrival is encoded relative to the same packet's send time: the
	// one-way delay is small and positive in real traces.
	for i, sent := range p.SentAt {
		p.Arrived[i] -= sent
	}
	b = putInts(b, p.Arrived, true)
	b = putInts(b, p.Seq, false)
	b = putInts(b, p.Kind, true)
	b = putInts(b, p.Dir, true)
	b = putInts(b, p.Size, true)

	// The stats rows are transposed into the section's columns: the
	// flag bytes and the fixed-width floats in place, the integers
	// through statInts.
	m := len(blk.Stats)
	b = putTimes(b, blk.StatsAt, &w.lastAt[SeriesStats])
	fl, fp := len(b), len(b)+m
	b = append(b, make([]byte, m+statsFloats*8*m)...)
	w.statInts = grow(w.statInts, (statsSigned+statsUnsigned)*m)
	for i := range blk.Stats {
		row := &blk.Stats[i]
		b[fl+i] = flag(row.Local, StatsFlagLocal) | flag(row.FrozenNow, StatsFlagFrozen)
		f, n, u := row.wireColumns()
		for col, v := range f {
			binary.LittleEndian.PutUint64(b[fp+8*(col*m+i):], math.Float64bits(*v))
		}
		for col, v := range n {
			z := int64(*v)
			w.statInts[col*m+i] = uint64(z)<<1 ^ uint64(z>>63) // zigzag encode
		}
		for col, v := range u {
			w.statInts[(len(n)+col)*m+i] = *v
		}
	}
	b = putInts(b, w.statInts, false)

	r := &blk.RRC
	b = putTimes(b, r.At, &w.lastAt[SeriesRRC])
	b = append(b, r.Flags...)
	b = putInts(b, r.RNTI, false)
	b = w.putStrings(b, r.Cause)

	w.total += uint64(len(blk.Tags))
	blk.reset()
	w.emitFrame(frameBlock, b)
}

// WriteBinary serializes the set in the binary columnar format,
// emitting records in exactly the merged timestamp order WriteJSONL
// uses — decoding either encoding of the same set yields an identical
// record stream. The caller's set is not mutated.
func WriteBinary(w io.Writer, set *Set) error {
	bw := NewBinaryWriter(w)
	hdr := Header{CellName: set.CellName, Scenario: set.Scenario, Duration: set.Duration, HasGNBLog: set.HasGNBLog}
	if err := bw.WriteHeader(hdr); err != nil {
		return err
	}
	if err := forEachMerged(set, bw.WriteRecord); err != nil {
		return err
	}
	return bw.Close()
}

// binCursor is a bounds-checked decode cursor over one frame payload.
type binCursor struct {
	b   []byte
	off int
	err error
}

func (c *binCursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("trace: binary: truncated or corrupt %s", what)
	}
}

func (c *binCursor) uvarint(what string) uint64 {
	// Single-byte fast path, small enough to inline: counts, enum-like
	// fields and dictionary references rarely need more.
	if c.err == nil && c.off < len(c.b) && c.b[c.off] < 0x80 {
		v := uint64(c.b[c.off])
		c.off++
		return v
	}
	return c.uvarintSlow(what)
}

func (c *binCursor) uvarintSlow(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.off += n
	return v
}

func (c *binCursor) varint(what string) int64 {
	u := c.uvarint(what)
	return int64(u>>1) ^ -int64(u&1) // zigzag decode
}

func (c *binCursor) byte(what string) byte {
	if c.err != nil || c.off >= len(c.b) {
		c.fail(what)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *binCursor) bytes(n int, what string) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail(what)
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

// The column decoders below each resize dst to n rows (reusing its
// backing array, see grow) and fill it from the cursor. They keep the
// cursor's position in locals for the whole column, and after a
// failure they leave the rows undefined — the block is discarded.

// ints decodes a column of n varints, zigzag-decoded when signed. The
// 1–3-byte encodings that carry nearly all column data (time deltas,
// sizes, sequence numbers, RNTIs) are decoded in line; longer or
// truncated ones take encoding/binary's general loop, which also
// defines what is accepted.
func ints[T ~int | ~int64 | ~uint32 | ~uint64](c *binCursor, dst []T, n int, signed bool, what string) []T {
	dst = grow(dst, n)
	if c.err != nil {
		return dst
	}
	b, off := c.b, c.off
	for i := range dst {
		var u uint64
		switch {
		case off < len(b) && b[off] < 0x80:
			u = uint64(b[off])
			off++
		case off+1 < len(b) && b[off+1] < 0x80:
			u = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		case off+2 < len(b) && b[off+2] < 0x80:
			u = uint64(b[off]&0x7f) | uint64(b[off+1]&0x7f)<<7 | uint64(b[off+2])<<14
			off += 3
		default:
			v, w := binary.Uvarint(b[off:])
			if w <= 0 {
				c.fail(what)
				return dst
			}
			u = v
			off += w
		}
		if signed {
			u = u>>1 ^ -(u & 1) // zigzag decode
		}
		dst[i] = T(u)
	}
	c.off = off
	return dst
}

// times decodes a column of zigzag deltas against *last (the series'
// previous timestamp, carried across blocks) into absolute times.
func times(c *binCursor, dst []sim.Time, n int, last *sim.Time, what string) []sim.Time {
	dst = ints(c, dst, n, true, what)
	t := *last
	for i, d := range dst {
		t += d
		dst[i] = t
	}
	*last = t
	return dst
}

func flags(c *binCursor, dst []uint8, n int, what string) []uint8 {
	dst = grow(dst, n)
	copy(dst, c.bytes(n, what))
	return dst
}

// strings decodes a column of dictionary references.
func (bd *binaryDecoder) strings(c *binCursor, dst []string, n int, what string) []string {
	dst = grow(dst, n)
	for i := range dst {
		id := c.uvarint(what)
		if c.err != nil {
			break
		}
		if id >= uint64(len(bd.dict)) {
			c.err = fmt.Errorf("trace: binary: %s references unknown dict id %d", what, id)
			break
		}
		dst[i] = bd.dict[id]
	}
	return dst
}

// binaryDecoder is a Reader's binary half: it decodes the stream's
// frames, one wire block per decode call, keeping the dictionary and
// the per-series delta bases from block to block.
type binaryDecoder struct {
	r   *bufio.Reader
	buf []byte // frame payload scratch, reused across frames

	dict     []string
	seriesOf []int8 // dict ID -> series index, -1 for plain strings

	hdr     *Header
	started bool // magic consumed
	endSeen bool

	lastAt   [NumSeries]sim.Time
	total    uint64
	statInts []uint64 // a block's stats integer columns, before transposition
}

// grow returns s resized to n elements, reusing its backing array when
// it is big enough. Callers overwrite every element, so stale contents
// never need zeroing.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+n/4)
}

// failf is a decode error; the Reader keeps it as its terminal one.
func failf(format string, args ...any) error {
	return fmt.Errorf("trace: binary: "+format, args...)
}

// decode fills b with the next block: the header block first, then one
// wire block per call, consuming the dict and end frames before it as
// bookkeeping. io.EOF marks a clean end of stream (after a valid end
// frame); any other error — including plain truncation — is terminal.
func (bd *binaryDecoder) decode(b *Block, _ *BlockRing) error {
	if !bd.started {
		magic := make([]byte, len(binaryMagic))
		if _, err := io.ReadFull(bd.r, magic); err != nil {
			return failf("short magic header: %v", err)
		}
		if !bytes.Equal(magic, []byte(binaryMagic)) {
			return failf("bad magic %q (not a binary domino trace, or unsupported version)", magic)
		}
		bd.started = true
	}
	for {
		kind, err := bd.r.ReadByte()
		if err == io.EOF {
			if bd.endSeen {
				return io.EOF
			}
			return failf("truncated stream: missing end frame")
		}
		if err != nil {
			return err
		}
		if bd.endSeen {
			return failf("trailing data after end frame")
		}
		plen, err := binary.ReadUvarint(bd.r)
		if err != nil {
			return failf("frame length: %v", err)
		}
		if plen > maxBinaryFramePayload {
			return failf("frame payload %d exceeds limit", plen)
		}
		// A payload longer than the buffer is read in pieces, the buffer
		// growing as they arrive: a length the stream does not back
		// costs at most twice the bytes received plus one step.
		size, payload := int(plen), bd.buf[:0]
		for len(payload) < size {
			if len(payload) == cap(payload) {
				payload = slices.Grow(payload, min(size-len(payload), max(cap(payload), 1<<14)))
			}
			n, err := io.ReadFull(bd.r, payload[len(payload):min(cap(payload), size)])
			if payload = payload[:len(payload)+n]; err == io.EOF && len(payload) > 0 {
				err = io.ErrUnexpectedEOF // what one read of the whole payload says
			}
			if err != nil {
				return failf("truncated frame payload: %v", err)
			}
		}
		bd.buf = payload
		switch kind {
		case frameDict:
			if err := bd.decodeDict(payload); err != nil {
				return err
			}
		case frameHeader:
			b.Header, err = bd.decodeHeader(payload)
			return err
		case frameBlock:
			if bd.hdr == nil {
				return failf("block before header frame")
			}
			return bd.decodeBlock(payload, b)
		case frameEnd:
			c := binCursor{b: payload}
			want := c.uvarint("end frame count")
			if c.err != nil {
				return c.err
			}
			if want != bd.total {
				return failf("record count mismatch: end frame says %d, decoded %d", want, bd.total)
			}
			bd.endSeen = true
		default:
			return failf("unknown frame kind %d", kind)
		}
	}
}

func (bd *binaryDecoder) decodeDict(payload []byte) error {
	c := binCursor{b: payload}
	count := c.uvarint("dict count")
	for i := uint64(0); i < count && c.err == nil; i++ {
		n := c.uvarint("dict string length")
		raw := c.bytes(int(n), "dict string")
		if c.err != nil {
			break
		}
		s := string(raw)
		series := int8(-1)
		for si, name := range seriesNames {
			if s == name && len(bd.dict) == si {
				series = int8(si)
			}
		}
		bd.dict = append(bd.dict, s)
		bd.seriesOf = append(bd.seriesOf, series)
	}
	if c.err != nil {
		return c.err
	}
	if c.off != len(payload) {
		return failf("dict frame has %d trailing bytes", len(payload)-c.off)
	}
	return nil
}

func (bd *binaryDecoder) dictString(id uint64, what string) (string, error) {
	if id >= uint64(len(bd.dict)) {
		return "", failf("%s references unknown dict id %d", what, id)
	}
	return bd.dict[id], nil
}

func (bd *binaryDecoder) decodeHeader(payload []byte) (*Header, error) {
	if bd.hdr != nil {
		return nil, failf("duplicate header frame")
	}
	c := binCursor{b: payload}
	cellID := c.uvarint("header cell")
	scenRef := c.uvarint("header scenario")
	dur := c.varint("header duration")
	flags := c.byte("header flags")
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(payload) {
		return nil, failf("header frame has %d trailing bytes", len(payload)-c.off)
	}
	cell, err := bd.dictString(cellID, "header cell")
	if err != nil {
		return nil, err
	}
	hdr := Header{CellName: cell, Duration: sim.Time(dur), HasGNBLog: flags&1 != 0}
	if scenRef != 0 {
		if hdr.Scenario, err = bd.dictString(scenRef-1, "header scenario"); err != nil {
			return nil, err
		}
	}
	bd.hdr = &hdr
	return bd.hdr, nil
}

// decodeBlock decodes one block frame into b, column by column: the
// wire is field-major per series, and so is the Block.
func (bd *binaryDecoder) decodeBlock(payload []byte, b *Block) error {
	c := &binCursor{b: payload}
	n := c.uvarint("block count")
	if c.err != nil {
		return c.err
	}
	if n == 0 || n > maxBinaryFramePayload {
		return failf("implausible block record count %d", n)
	}
	tags := c.bytes(int(n), "block tags")
	if c.err != nil {
		return c.err
	}
	// A tag is the dictionary ID of a series name, and a series name is
	// only recognized at the ID that equals its index (decodeDict), so a
	// valid tag is its own series index.
	var counts [NumSeries]int
	for _, t := range tags {
		if int(t) >= len(bd.seriesOf) || bd.seriesOf[t] < 0 {
			return failf("block tag %d is not an interned series name", t)
		}
		counts[t]++
	}
	b.Header = nil
	b.Tags = append(b.Tags[:0], tags...)

	m, d := counts[SeriesDCI], &b.DCI
	d.At = times(c, d.At, m, &bd.lastAt[SeriesDCI], "dci at")
	d.Dir = ints(c, d.Dir, m, true, "dci dir")
	d.RNTI = ints(c, d.RNTI, m, false, "dci rnti")
	d.OwnPRB = ints(c, d.OwnPRB, m, true, "dci own_prb")
	d.OtherPRB = ints(c, d.OtherPRB, m, true, "dci other_prb")
	d.MCS = ints(c, d.MCS, m, true, "dci mcs")
	d.TBSBits = ints(c, d.TBSBits, m, true, "dci tbs_bits")
	d.UsedBits = ints(c, d.UsedBits, m, true, "dci used_bits")
	d.Flags = flags(c, d.Flags, m, "dci flags")

	m, g := counts[SeriesGNB], &b.GNB
	g.At = times(c, g.At, m, &bd.lastAt[SeriesGNB], "gnb at")
	g.Kind = ints(c, g.Kind, m, true, "gnb kind")
	g.Dir = ints(c, g.Dir, m, true, "gnb dir")
	g.BufferBytes = ints(c, g.BufferBytes, m, true, "gnb buffer_bytes")
	g.RNTI = ints(c, g.RNTI, m, false, "gnb rnti")
	g.Note = bd.strings(c, g.Note, m, "gnb note")

	m, p := counts[SeriesPkt], &b.Pkt
	p.SentAt = times(c, p.SentAt, m, &bd.lastAt[SeriesPkt], "pkt sent_at")
	// Arrival is encoded relative to the same packet's send time.
	p.Arrived = ints(c, p.Arrived, m, true, "pkt delay")
	for i, sent := range p.SentAt {
		p.Arrived[i] += sent
	}
	p.Seq = ints(c, p.Seq, m, false, "pkt seq")
	p.Kind = ints(c, p.Kind, m, true, "pkt kind")
	p.Dir = ints(c, p.Dir, m, true, "pkt dir")
	p.Size = ints(c, p.Size, m, true, "pkt size")

	// The stats section is decoded whole — the flag bytes, the float
	// columns and the integer columns are each contiguous — and then
	// transposed into rows.
	m = counts[SeriesStats]
	b.StatsAt = times(c, b.StatsAt, m, &bd.lastAt[SeriesStats], "stats at")
	b.Stats = grow(b.Stats, m)
	fl := c.bytes(m, "stats flags")
	fp := c.bytes(statsFloats*8*m, "stats float columns")
	bd.statInts = ints(c, bd.statInts, (statsSigned+statsUnsigned)*m, false, "stats integer columns")
	if c.err == nil {
		for i, at := range b.StatsAt {
			row := &b.Stats[i]
			*row = WebRTCStatsRecord{At: at, Local: fl[i]&StatsFlagLocal != 0, FrozenNow: fl[i]&StatsFlagFrozen != 0}
			f, n, u := row.wireColumns()
			for col, v := range f {
				*v = math.Float64frombits(binary.LittleEndian.Uint64(fp[8*(col*m+i):]))
			}
			for col, v := range n {
				z := bd.statInts[col*m+i]
				*v = int(z>>1 ^ -(z & 1)) // zigzag decode
			}
			for col, v := range u {
				*v = bd.statInts[(len(n)+col)*m+i]
			}
		}
	}

	m, r := counts[SeriesRRC], &b.RRC
	r.At = times(c, r.At, m, &bd.lastAt[SeriesRRC], "rrc at")
	r.Flags = flags(c, r.Flags, m, "rrc flags")
	r.RNTI = ints(c, r.RNTI, m, false, "rrc rnti")
	r.Cause = bd.strings(c, r.Cause, m, "rrc cause")

	if c.err != nil {
		return c.err
	}
	if c.off != len(payload) {
		return failf("block frame has %d trailing bytes", len(payload)-c.off)
	}
	bd.total += n
	return nil
}
