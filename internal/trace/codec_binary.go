package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/domino5g/domino/internal/sim"
)

// Binary columnar trace format ("DMNTRCB1").
//
// JSONL decode is ~1 alloc/record but still byte-scans text for every
// sample; at fleet ingest volume the codec is the ceiling. This file
// implements the compact binary alternative. JSONL remains the
// compatibility path and the differential oracle: WriteBinary emits
// records in exactly WriteJSONL's merged order (forEachMerged), so the
// record stream decoded from either encoding of the same set is
// identical — codec_binary_test.go and the root-package scenario
// differential pin that, mirroring PR 4's fast-vs-stdlib pattern.
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

	// maxBinaryFramePayload bounds a single frame so a corrupt length
	// prefix cannot make the reader attempt a multi-GB allocation.
	maxBinaryFramePayload = 1 << 27
)

// seriesNames are interned first by the writer, so a series' dictionary
// ID is its Series* index.
var seriesNames = [NumSeries]string{"dci", "gnb", "pkt", "stats", "rrc"}

// BinaryWriter encodes a trace stream into the binary columnar format:
// a header first, then records in timestamp order, Close to flush the
// final partial block and the end frame. The zero value is not usable;
// use NewBinaryWriter.
type BinaryWriter struct {
	w      *bufio.Writer
	dict   map[string]uint64
	nextID uint64
	fresh  []string // strings interned since the last dict frame

	blockSize int
	pend      []Record
	lastAt    [NumSeries]sim.Time
	total     uint64

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
	return &BinaryWriter{
		w:         bw,
		dict:      make(map[string]uint64, 16),
		blockSize: defaultBinaryBlockSize,
		pend:      make([]Record, 0, defaultBinaryBlockSize),
		scratch:   make([]byte, 0, 1<<14),
	}
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
	if rec.IsZero() {
		w.err = fmt.Errorf("trace: binary: empty record")
		return w.err
	}
	w.pend = append(w.pend, rec)
	if len(w.pend) >= w.blockSize {
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

func appendFloatCol(b []byte, recs []Record, get func(Record) float64) []byte {
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(get(r)))
	}
	return b
}

// flushBlock encodes the pending records as (optionally) a dict frame
// followed by one block frame.
func (w *BinaryWriter) flushBlock() {
	if w.err != nil || len(w.pend) == 0 {
		return
	}
	// First pass: intern strings so the dict frame precedes the block,
	// and split the block into per-series record lists.
	var bySeries [NumSeries][]Record
	for _, rec := range w.pend {
		switch {
		case rec.DCI != nil:
			bySeries[SeriesDCI] = append(bySeries[SeriesDCI], rec)
		case rec.GNB != nil:
			w.intern(rec.GNB.Note)
			bySeries[SeriesGNB] = append(bySeries[SeriesGNB], rec)
		case rec.Packet != nil:
			bySeries[SeriesPkt] = append(bySeries[SeriesPkt], rec)
		case rec.Stats != nil:
			bySeries[SeriesStats] = append(bySeries[SeriesStats], rec)
		case rec.RRC != nil:
			w.intern(rec.RRC.Cause)
			bySeries[SeriesRRC] = append(bySeries[SeriesRRC], rec)
		}
	}
	w.flushDict()

	b := w.scratch[:0]
	b = binary.AppendUvarint(b, uint64(len(w.pend)))
	for _, rec := range w.pend {
		switch {
		case rec.DCI != nil:
			b = append(b, SeriesDCI)
		case rec.GNB != nil:
			b = append(b, SeriesGNB)
		case rec.Packet != nil:
			b = append(b, SeriesPkt)
		case rec.Stats != nil:
			b = append(b, SeriesStats)
		case rec.RRC != nil:
			b = append(b, SeriesRRC)
		}
	}

	if recs := bySeries[SeriesDCI]; len(recs) > 0 {
		last := w.lastAt[SeriesDCI]
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.DCI.At-last))
			last = r.DCI.At
		}
		w.lastAt[SeriesDCI] = last
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.DCI.Dir))
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, uint64(r.DCI.RNTI))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.DCI.OwnPRB))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.DCI.OtherPRB))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.DCI.MCS))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.DCI.TBSBits))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.DCI.UsedBits))
		}
		for _, r := range recs {
			var f byte
			if r.DCI.HARQRetx {
				f |= 1
			}
			if r.DCI.RLCRetx {
				f |= 2
			}
			if r.DCI.Proactive {
				f |= 4
			}
			if r.DCI.Unused {
				f |= 8
			}
			b = append(b, f)
		}
	}
	if recs := bySeries[SeriesGNB]; len(recs) > 0 {
		last := w.lastAt[SeriesGNB]
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.GNB.At-last))
			last = r.GNB.At
		}
		w.lastAt[SeriesGNB] = last
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.GNB.Kind))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.GNB.Dir))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.GNB.BufferBytes))
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, uint64(r.GNB.RNTI))
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, w.dict[r.GNB.Note])
		}
	}
	if recs := bySeries[SeriesPkt]; len(recs) > 0 {
		last := w.lastAt[SeriesPkt]
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Packet.SentAt-last))
			last = r.Packet.SentAt
		}
		w.lastAt[SeriesPkt] = last
		// Arrival is encoded relative to the same packet's send time:
		// the one-way delay is small and positive in real traces.
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Packet.Arrived-r.Packet.SentAt))
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, r.Packet.Seq)
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Packet.Kind))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Packet.Dir))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Packet.Size))
		}
	}
	if recs := bySeries[SeriesStats]; len(recs) > 0 {
		last := w.lastAt[SeriesStats]
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Stats.At-last))
			last = r.Stats.At
		}
		w.lastAt[SeriesStats] = last
		for _, r := range recs {
			var f byte
			if r.Stats.Local {
				f |= 1
			}
			if r.Stats.FrozenNow {
				f |= 2
			}
			b = append(b, f)
		}
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.InboundFPS })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.OutboundFPS })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.VideoJBDelayMs })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.AudioJBDelayMs })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.MinJBDelayMs })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.FreezeTotalMs })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.TargetBitrateBps })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.PushbackRateBps })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.TrendlineSlope })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.TrendlineThreshold })
		b = appendFloatCol(b, recs, func(r Record) float64 { return r.Stats.AckedBitrateBps })
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Stats.OutboundHeight))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Stats.InboundHeight))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Stats.OutstandingBytes))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Stats.CongestionWindow))
		}
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Stats.GCCNetState))
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, r.Stats.ConcealedSamples)
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, r.Stats.TotalSamples)
		}
	}
	if recs := bySeries[SeriesRRC]; len(recs) > 0 {
		last := w.lastAt[SeriesRRC]
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.RRC.At-last))
			last = r.RRC.At
		}
		w.lastAt[SeriesRRC] = last
		for _, r := range recs {
			var f byte
			if r.RRC.Connected {
				f |= 1
			}
			b = append(b, f)
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, uint64(r.RRC.RNTI))
		}
		for _, r := range recs {
			b = binary.AppendUvarint(b, w.dict[r.RRC.Cause])
		}
	}
	w.total += uint64(len(w.pend))
	w.pend = w.pend[:0]
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
func (sr *BinaryStreamReader) strings(c *binCursor, dst []string, n int, what string) []string {
	dst = grow(dst, n)
	for i := range dst {
		id := c.uvarint(what)
		if c.err != nil {
			break
		}
		if id >= uint64(len(sr.dict)) {
			c.err = fmt.Errorf("trace: binary: %s references unknown dict id %d", what, id)
			break
		}
		dst[i] = sr.dict[id]
	}
	return dst
}

// BinaryStreamReader decodes a binary columnar trace incrementally,
// one block at a time. ReadBlock yields the blocks as they are on the
// wire, in columns; the RecordReader methods materialise Records from
// the same decoded block: Next yields the header record first and then
// every data record in the stream's (merged timestamp) order, exactly
// like the JSONL StreamReader over the equivalent JSONL encoding.
// Decoded blocks use freshly allocated backing storage, so what a call
// returned stays valid after the reader advances — unless the consumer
// opts into bounded lifetimes with Recycle. A consumer uses either
// ReadBlock or the RecordReader methods on one reader, not both.
type BinaryStreamReader struct {
	r   *bufio.Reader
	buf []byte // frame payload scratch, reused across frames

	dict     []string
	seriesOf []int8 // dict ID -> series index, -1 for plain strings

	hdr     *Header
	started bool // magic consumed
	endSeen bool

	recs   []Record  // records materialised from the last decoded frame
	pos    int       // next of recs to hand out
	hdrRec [1]Record // backs the one-element header batch
	lastAt [NumSeries]sim.Time
	total  uint64

	// ring, when non-empty, holds the recycled storage generations
	// enabled by Recycle; ringPos is the generation the next block
	// uses. scratch is the column intermediate Records are materialised
	// from; no caller sees it, so one is enough.
	ring     []blockStorage
	ringPos  int
	scratch  Block
	statInts []uint64 // a block's stats integer columns, before transposition

	err error
}

// blockStorage is one generation of decoded-block backing arrays: the
// columns ReadBlock hands out, or the Records (and the structs they
// point at) ReadBatch and Next hand out.
type blockStorage struct {
	blk   Block
	recs  []Record
	dcis  []DCIRecord
	gnbs  []GNBLogRecord
	pkts  []PacketRecord
	stats []WebRTCStatsRecord
	rrcs  []RRCRecord
}

// Recycle trades the default lives-forever guarantee for an
// allocation-free steady state: block storage is reused round-robin
// across depth+1 generations, so the block from a ReadBlock call (or
// the records from a ReadBatch or Next call) stays intact while depth
// further blocks are decoded and is overwritten in place by the one
// after. Consumers that copy what they keep — dominod's ingest
// pipeline pushes a block through the analyzer (which appends its
// columns to its index) while decoding the next — run with depth 1 and
// no per-record garbage. Call before the first read; depth <= 0
// restores fresh allocation per block.
func (sr *BinaryStreamReader) Recycle(depth int) {
	if depth <= 0 {
		sr.ring = nil
		return
	}
	sr.ring = make([]blockStorage, depth+1)
	sr.ringPos = 0
}

// storage returns the generation the next block decodes into: the next
// ring slot under Recycle, a fresh one otherwise.
func (sr *BinaryStreamReader) storage() *blockStorage {
	if len(sr.ring) == 0 {
		return &blockStorage{}
	}
	st := &sr.ring[sr.ringPos]
	sr.ringPos++
	if sr.ringPos == len(sr.ring) {
		sr.ringPos = 0
	}
	return st
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

// NewBinaryStreamReader returns a streaming decoder over r. The magic
// header is validated lazily on the first read call.
func NewBinaryStreamReader(r io.Reader) *BinaryStreamReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &BinaryStreamReader{r: br, buf: make([]byte, 0, 1<<14)}
}

// Header returns the stream header once it has been read.
func (sr *BinaryStreamReader) Header() (Header, bool) {
	if sr.hdr == nil {
		return Header{}, false
	}
	return *sr.hdr, true
}

func (sr *BinaryStreamReader) fail(err error) error {
	if sr.err == nil {
		sr.err = err
	}
	return sr.err
}

func (sr *BinaryStreamReader) failf(format string, args ...any) error {
	return sr.fail(fmt.Errorf("trace: binary: "+format, args...))
}

// ReadBlock returns the next block in columnar form: the header block
// first, then one wire block per call. A nil block with io.EOF marks a
// clean end of stream (after a valid end frame); any other error —
// including plain truncation — is terminal and repeated on later
// calls.
func (sr *BinaryStreamReader) ReadBlock() (*Block, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	hdr, payload, err := sr.nextFrame()
	if err != nil {
		return nil, err
	}
	if hdr != nil {
		return &Block{Header: hdr}, nil
	}
	st := sr.storage()
	if err := sr.decodeBlock(payload, &st.blk); err != nil {
		return nil, err
	}
	return &st.blk, nil
}

// fill materialises the next frame's records into sr.recs.
func (sr *BinaryStreamReader) fill() error {
	if sr.err != nil {
		return sr.err
	}
	hdr, payload, err := sr.nextFrame()
	if err != nil {
		return err
	}
	sr.pos = 0
	if hdr != nil {
		sr.hdrRec[0] = Record{Header: hdr}
		sr.recs = sr.hdrRec[:]
		return nil
	}
	// Stats rows are decoded straight into the generation the records
	// will point at; the other series go through the scratch columns.
	st, b := sr.storage(), &sr.scratch
	b.Stats = st.stats
	if err := sr.decodeBlock(payload, b); err != nil {
		return err
	}
	st.stats = b.Stats
	sr.recs = st.records(b)
	return nil
}

// Next returns the next record. It returns io.EOF at a clean end of
// stream (after a valid end frame); any other error — including plain
// truncation — is terminal and repeated on later calls.
func (sr *BinaryStreamReader) Next() (Record, error) {
	if sr.pos >= len(sr.recs) {
		if err := sr.fill(); err != nil {
			return Record{}, err
		}
	}
	rec := sr.recs[sr.pos]
	sr.pos++
	return rec, nil
}

// ReadBatch returns the next batch of records: the header record (as a
// one-element batch) first, then one whole block per call. dst is
// ignored — the batch lives in the reader's block storage, fresh per
// block (so it stays valid while later batches are read) unless
// Recycle bounded its lifetime. A nil batch with io.EOF marks a clean
// end of stream.
func (sr *BinaryStreamReader) ReadBatch(dst []Record) ([]Record, error) {
	if sr.pos >= len(sr.recs) {
		if err := sr.fill(); err != nil {
			return nil, err
		}
	}
	batch := sr.recs[sr.pos:]
	sr.pos = len(sr.recs)
	return batch, nil
}

// nextFrame consumes frames up to the next one that carries records.
// It returns the header for the header frame, else the payload of a
// block frame (valid until the next call); dict and end frames are
// bookkeeping it loops past.
func (sr *BinaryStreamReader) nextFrame() (*Header, []byte, error) {
	if !sr.started {
		magic := make([]byte, len(binaryMagic))
		if _, err := io.ReadFull(sr.r, magic); err != nil {
			return nil, nil, sr.failf("short magic header: %v", err)
		}
		if !bytes.Equal(magic, []byte(binaryMagic)) {
			return nil, nil, sr.failf("bad magic %q (not a binary domino trace, or unsupported version)", magic)
		}
		sr.started = true
	}
	for {
		kind, err := sr.r.ReadByte()
		if err == io.EOF {
			if sr.endSeen {
				return nil, nil, sr.fail(io.EOF)
			}
			return nil, nil, sr.failf("truncated stream: missing end frame")
		}
		if err != nil {
			return nil, nil, sr.fail(err)
		}
		if sr.endSeen {
			return nil, nil, sr.failf("trailing data after end frame")
		}
		plen, err := binary.ReadUvarint(sr.r)
		if err != nil {
			return nil, nil, sr.failf("frame length: %v", err)
		}
		if plen > maxBinaryFramePayload {
			return nil, nil, sr.failf("frame payload %d exceeds limit", plen)
		}
		if uint64(cap(sr.buf)) < plen {
			sr.buf = make([]byte, plen)
		}
		payload := sr.buf[:plen]
		if _, err := io.ReadFull(sr.r, payload); err != nil {
			return nil, nil, sr.failf("truncated frame payload: %v", err)
		}
		switch kind {
		case frameDict:
			if err := sr.decodeDict(payload); err != nil {
				return nil, nil, err
			}
		case frameHeader:
			hdr, err := sr.decodeHeader(payload)
			return hdr, nil, err
		case frameBlock:
			if sr.hdr == nil {
				return nil, nil, sr.failf("block before header frame")
			}
			return nil, payload, nil
		case frameEnd:
			c := binCursor{b: payload}
			want := c.uvarint("end frame count")
			if c.err != nil {
				return nil, nil, sr.fail(c.err)
			}
			if want != sr.total {
				return nil, nil, sr.failf("record count mismatch: end frame says %d, decoded %d", want, sr.total)
			}
			sr.endSeen = true
		default:
			return nil, nil, sr.failf("unknown frame kind %d", kind)
		}
	}
}

func (sr *BinaryStreamReader) decodeDict(payload []byte) error {
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
			if s == name && len(sr.dict) == si {
				series = int8(si)
			}
		}
		sr.dict = append(sr.dict, s)
		sr.seriesOf = append(sr.seriesOf, series)
	}
	if c.err != nil {
		return sr.fail(c.err)
	}
	if c.off != len(payload) {
		return sr.failf("dict frame has %d trailing bytes", len(payload)-c.off)
	}
	return nil
}

func (sr *BinaryStreamReader) dictString(id uint64, what string) (string, error) {
	if id >= uint64(len(sr.dict)) {
		return "", sr.failf("%s references unknown dict id %d", what, id)
	}
	return sr.dict[id], nil
}

func (sr *BinaryStreamReader) decodeHeader(payload []byte) (*Header, error) {
	if sr.hdr != nil {
		return nil, sr.failf("duplicate header frame")
	}
	c := binCursor{b: payload}
	cellID := c.uvarint("header cell")
	scenRef := c.uvarint("header scenario")
	dur := c.varint("header duration")
	flags := c.byte("header flags")
	if c.err != nil {
		return nil, sr.fail(c.err)
	}
	if c.off != len(payload) {
		return nil, sr.failf("header frame has %d trailing bytes", len(payload)-c.off)
	}
	cell, err := sr.dictString(cellID, "header cell")
	if err != nil {
		return nil, err
	}
	hdr := Header{CellName: cell, Duration: sim.Time(dur), HasGNBLog: flags&1 != 0}
	if scenRef != 0 {
		if hdr.Scenario, err = sr.dictString(scenRef-1, "header scenario"); err != nil {
			return nil, err
		}
	}
	sr.hdr = &hdr
	return sr.hdr, nil
}

// decodeBlock decodes one block frame into b, column by column: the
// wire is field-major per series, and so is the Block.
func (sr *BinaryStreamReader) decodeBlock(payload []byte, b *Block) error {
	c := &binCursor{b: payload}
	n := c.uvarint("block count")
	if c.err != nil {
		return sr.fail(c.err)
	}
	if n == 0 || n > maxBinaryFramePayload {
		return sr.failf("implausible block record count %d", n)
	}
	tags := c.bytes(int(n), "block tags")
	if c.err != nil {
		return sr.fail(c.err)
	}
	// A tag is the dictionary ID of a series name, and a series name is
	// only recognized at the ID that equals its index (decodeDict), so a
	// valid tag is its own series index.
	var counts [NumSeries]int
	for _, t := range tags {
		if int(t) >= len(sr.seriesOf) || sr.seriesOf[t] < 0 {
			return sr.failf("block tag %d is not an interned series name", t)
		}
		counts[t]++
	}
	b.Header = nil
	b.Tags = append(b.Tags[:0], tags...)

	m, d := counts[SeriesDCI], &b.DCI
	d.At = times(c, d.At, m, &sr.lastAt[SeriesDCI], "dci at")
	d.Dir = ints(c, d.Dir, m, true, "dci dir")
	d.RNTI = ints(c, d.RNTI, m, false, "dci rnti")
	d.OwnPRB = ints(c, d.OwnPRB, m, true, "dci own_prb")
	d.OtherPRB = ints(c, d.OtherPRB, m, true, "dci other_prb")
	d.MCS = ints(c, d.MCS, m, true, "dci mcs")
	d.TBSBits = ints(c, d.TBSBits, m, true, "dci tbs_bits")
	d.UsedBits = ints(c, d.UsedBits, m, true, "dci used_bits")
	d.Flags = flags(c, d.Flags, m, "dci flags")

	m, g := counts[SeriesGNB], &b.GNB
	g.At = times(c, g.At, m, &sr.lastAt[SeriesGNB], "gnb at")
	g.Kind = ints(c, g.Kind, m, true, "gnb kind")
	g.Dir = ints(c, g.Dir, m, true, "gnb dir")
	g.BufferBytes = ints(c, g.BufferBytes, m, true, "gnb buffer_bytes")
	g.RNTI = ints(c, g.RNTI, m, false, "gnb rnti")
	g.Note = sr.strings(c, g.Note, m, "gnb note")

	m, p := counts[SeriesPkt], &b.Pkt
	p.SentAt = times(c, p.SentAt, m, &sr.lastAt[SeriesPkt], "pkt sent_at")
	// Arrival is encoded relative to the same packet's send time.
	p.Arrived = ints(c, p.Arrived, m, true, "pkt delay")
	for i, sent := range p.SentAt {
		p.Arrived[i] += sent
	}
	p.Seq = ints(c, p.Seq, m, false, "pkt seq")
	p.Kind = ints(c, p.Kind, m, true, "pkt kind")
	p.Dir = ints(c, p.Dir, m, true, "pkt dir")
	p.Size = ints(c, p.Size, m, true, "pkt size")

	// The stats section is decoded whole — the flag bytes, the eleven
	// float columns and the seven integer columns are each contiguous —
	// and then transposed into rows.
	m = counts[SeriesStats]
	b.StatsAt = times(c, b.StatsAt, m, &sr.lastAt[SeriesStats], "stats at")
	b.Stats = grow(b.Stats, m)
	fl := c.bytes(m, "stats flags")
	fp := c.bytes(11*8*m, "stats float columns")
	sr.statInts = ints(c, sr.statInts, 7*m, false, "stats integer columns")
	if c.err == nil {
		f := func(col, i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(fp[8*(col*m+i):])) }
		u := func(col, i int) uint64 { return sr.statInts[col*m+i] }
		n := func(col, i int) int { return int(u(col, i)>>1 ^ -(u(col, i) & 1)) } // zigzag decode
		for i, at := range b.StatsAt {
			b.Stats[i] = WebRTCStatsRecord{
				At: at, Local: fl[i]&StatsFlagLocal != 0, FrozenNow: fl[i]&StatsFlagFrozen != 0,
				InboundFPS: f(0, i), OutboundFPS: f(1, i), VideoJBDelayMs: f(2, i), AudioJBDelayMs: f(3, i),
				MinJBDelayMs: f(4, i), FreezeTotalMs: f(5, i), TargetBitrateBps: f(6, i), PushbackRateBps: f(7, i),
				TrendlineSlope: f(8, i), TrendlineThreshold: f(9, i), AckedBitrateBps: f(10, i),
				OutboundHeight: n(0, i), InboundHeight: n(1, i), OutstandingBytes: n(2, i), CongestionWindow: n(3, i),
				GCCNetState: GCCState(n(4, i)), ConcealedSamples: u(5, i), TotalSamples: u(6, i),
			}
		}
	}

	m, r := counts[SeriesRRC], &b.RRC
	r.At = times(c, r.At, m, &sr.lastAt[SeriesRRC], "rrc at")
	r.Flags = flags(c, r.Flags, m, "rrc flags")
	r.RNTI = ints(c, r.RNTI, m, false, "rrc rnti")
	r.Cause = sr.strings(c, r.Cause, m, "rrc cause")

	if c.err != nil {
		return sr.fail(c.err)
	}
	if c.off != len(payload) {
		return sr.failf("block frame has %d trailing bytes", len(payload)-c.off)
	}
	sr.total += n
	return nil
}

// records materialises b's rows as Records in merged stream order,
// backed by st's arrays — except the stats rows, which are rows already
// and are pointed at where they are (fill has them decoded into
// st.stats).
func (st *blockStorage) records(b *Block) []Record {
	st.recs = grow(st.recs, len(b.Tags))
	st.dcis = grow(st.dcis, len(b.DCI.At))
	for i := range st.dcis {
		st.dcis[i] = b.DCI.Record(i)
	}
	st.gnbs = grow(st.gnbs, len(b.GNB.At))
	for i := range st.gnbs {
		st.gnbs[i] = b.GNB.Record(i)
	}
	st.pkts = grow(st.pkts, len(b.Pkt.SentAt))
	for i := range st.pkts {
		st.pkts[i] = b.Pkt.Record(i)
	}
	st.rrcs = grow(st.rrcs, len(b.RRC.At))
	for i := range st.rrcs {
		st.rrcs[i] = b.RRC.Record(i)
	}
	var next [NumSeries]int
	for i, t := range b.Tags {
		k := next[t]
		next[t]++
		switch t {
		case SeriesDCI:
			st.recs[i] = Record{DCI: &st.dcis[k]}
		case SeriesGNB:
			st.recs[i] = Record{GNB: &st.gnbs[k]}
		case SeriesPkt:
			st.recs[i] = Record{Packet: &st.pkts[k]}
		case SeriesStats:
			st.recs[i] = Record{Stats: &b.Stats[k]}
		case SeriesRRC:
			st.recs[i] = Record{RRC: &st.rrcs[k]}
		}
	}
	return st.recs
}
