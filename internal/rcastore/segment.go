package rcastore

// This file is the one stored-row codec. A checkpoint (Store.Spill /
// Load) and a journal (Journal.Append / Recover's replay) are the same
// thing on disk: segments of CRC-framed, dictionary-coded frames.
//
//	segment := start dict* (dict | row)* [end]
//	frame   := kind(1B) payloadLen(uvarint) payload crc32(4B LE)
//
// The checksum (IEEE) covers kind, length and payload. Frame kinds:
//
//	start (1): "DMNRCAS" + version byte. Opens a segment and empties
//	           its five dictionaries.
//	dict  (2): which(1B) count, then count × (len, bytes). Names append
//	           to dictionary `which` (nodes, cells, scenarios, chains,
//	           causes) in ID order, always before the first row that
//	           uses them.
//	row   (3): session (len, bytes), cell ID, scenario ID, start
//	           (zigzag), end−start (zigzag), fired node IDs (count,
//	           IDs), chains and causes (count, (ID, runs) pairs), and
//	           a final 0: version 1's count of named metrics, which the
//	           store no longer keeps. A row with a nonzero count is
//	           corrupt.
//	end   (4): the segment's row count. Only a checkpoint has one: it is
//	           how Load tells a whole file from a cut one.
//
// A checkpoint is exactly one segment whose dictionaries are the
// store's, so IDs survive a reload and a re-spill is byte-identical. A
// journal is a concatenation of segments with no end frame, each with
// dictionaries of its own that replay maps onto the store's.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/domino5g/domino/internal/sim"
)

const (
	segmentMagic   = "DMNRCAS"
	segmentVersion = 1

	frameStart = 1
	frameDict  = 2
	frameRow   = 3
	frameEnd   = 4

	// maxFramePayload bounds one frame, so a corrupt length prefix
	// cannot size an allocation. The encoder refuses to exceed it.
	maxFramePayload = 1 << 22
	// spillFlushBytes is how much Spill buffers between writes.
	spillFlushBytes = 1 << 16
)

// Dictionary indexes: the `which` byte of a dict frame.
const (
	dictNodes = iota
	dictCells
	dictScens
	dictChains
	dictCauses
	numDicts
)

var dictKinds = [numDicts]string{"node", "cell", "scenario", "chain", "cause"}

// tables are the five dictionaries a stored row refers to by ID. The
// store embeds one set; a journal keeps its own per segment.
type tables struct {
	nodes, cells, scens *dict
	chains, causes      *dict
}

func newTables() tables {
	return tables{newDict(), newDict(), newDict(), newDict(), newDict()}
}

// all lists the dictionaries by dict-frame index.
func (t *tables) all() [numDicts]*dict {
	return [numDicts]*dict{t.nodes, t.cells, t.scens, t.chains, t.causes}
}

// row is one stored record with its names resolved to dictionary IDs:
// what the encoder writes, the decoder reads, and a block stores.
type row struct {
	session             string
	cell, scen          uint32
	start, end          sim.Time
	fired               []uint32
	chainIDs, chainRuns []uint32
	causeIDs, causeRuns []uint32
}

// intern resolves rec's names against t, growing it, into r (whose
// slices are reused).
func (t *tables) intern(rec *Record, r *row) {
	r.session, r.start, r.end = rec.Session, rec.Start, rec.End
	r.cell = uint32(t.cells.id(rec.Cell))
	r.scen = uint32(t.scens.id(rec.Scenario))
	r.fired = r.fired[:0]
	for _, n := range rec.Fired {
		r.fired = append(r.fired, uint32(t.nodes.id(n)))
	}
	r.chainIDs, r.chainRuns = r.chainIDs[:0], r.chainRuns[:0]
	for _, c := range rec.Chains {
		r.chainIDs = append(r.chainIDs, uint32(t.chains.id(c.Chain)))
		r.chainRuns = append(r.chainRuns, uint32(c.Runs))
	}
	r.causeIDs, r.causeRuns = r.causeIDs[:0], r.causeRuns[:0]
	for _, c := range rec.Causes {
		r.causeIDs = append(r.causeIDs, uint32(t.causes.id(c.Cause)))
		r.causeRuns = append(r.causeRuns, uint32(c.Runs))
	}
}

// encoder builds frames into out; p is the payload under construction.
type encoder struct {
	out, p []byte
	err    error
}

// frame closes the payload in p as one frame of the given kind.
func (e *encoder) frame(kind byte) {
	if len(e.p) > maxFramePayload && e.err == nil {
		e.err = fmt.Errorf("rcastore: %d-byte frame exceeds the %d-byte cap", len(e.p), maxFramePayload)
	}
	at := len(e.out)
	e.out = append(e.out, kind)
	e.out = binary.AppendUvarint(e.out, uint64(len(e.p)))
	e.out = append(e.out, e.p...)
	e.out = binary.LittleEndian.AppendUint32(e.out, crc32.ChecksumIEEE(e.out[at:]))
	e.p = e.p[:0]
}

func (e *encoder) start() {
	e.p = append(append(e.p, segmentMagic...), segmentVersion)
	e.frame(frameStart)
}

// dict appends names to dictionary which.
func (e *encoder) dict(which int, names []string) {
	if len(names) == 0 {
		return
	}
	e.p = append(e.p, byte(which))
	e.p = binary.AppendUvarint(e.p, uint64(len(names)))
	for _, name := range names {
		e.p = binary.AppendUvarint(e.p, uint64(len(name)))
		e.p = append(e.p, name...)
	}
	e.frame(frameDict)
}

func (e *encoder) row(r *row) {
	p := binary.AppendUvarint(e.p, uint64(len(r.session)))
	p = append(p, r.session...)
	p = binary.AppendUvarint(p, uint64(r.cell))
	p = binary.AppendUvarint(p, uint64(r.scen))
	p = binary.AppendVarint(p, int64(r.start))
	p = binary.AppendVarint(p, int64(r.end-r.start))
	p = binary.AppendUvarint(p, uint64(len(r.fired)))
	for _, id := range r.fired {
		p = binary.AppendUvarint(p, uint64(id))
	}
	for _, pairs := range [2][2][]uint32{{r.chainIDs, r.chainRuns}, {r.causeIDs, r.causeRuns}} {
		p = binary.AppendUvarint(p, uint64(len(pairs[0])))
		for k, id := range pairs[0] {
			p = binary.AppendUvarint(p, uint64(id))
			p = binary.AppendUvarint(p, uint64(pairs[1][k]))
		}
	}
	e.p = append(p, 0) // version 1's named-metrics count, always 0
	e.frame(frameRow)
}

func (e *encoder) end(rows int) {
	e.p = binary.AppendUvarint(e.p, uint64(rows))
	e.frame(frameEnd)
}

var (
	// errTorn: the bytes from here to the end of the file are not a
	// frame (the file ends inside one, or no frame starts like this).
	errTorn = errors.New("torn frame")
	// errChecksum: a whole frame was read and its checksum is wrong.
	errChecksum = errors.New("frame checksum mismatch")
)

// frameReader streams frames off a reader, holding one frame at a time.
type frameReader struct {
	r   *bufio.Reader
	off int64 // end of the last whole, checksummed frame
	pos int64 // bytes consumed, whole frame or not
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: bufio.NewReader(r)} }

// legacy reports a file in one of the encodings this codec replaced,
// which both began with printable text; a segment begins with byte 1.
func (fr *frameReader) legacy() error {
	b, _ := fr.r.Peek(1)
	switch {
	case len(b) == 1 && b[0] == '{':
		return errors.New("rcastore: this is a JSONL spill from before PR 17: checkpoints are CRC-framed segments now and the old format has no reader")
	case len(b) == 1 && (b[0] >= '0' && b[0] <= '9' || b[0] >= 'a' && b[0] <= 'f'):
		return errors.New("rcastore: this is a hex-CRC JSON-line journal from before PR 17: journals are CRC-framed segments now and the old format has no reader")
	}
	return nil
}

// next returns the next frame; the payload is valid until the following
// call. io.EOF means the input ended between frames; errTorn and
// errChecksum (wrapped) are the two ways a frame can be bad.
func (fr *frameReader) next() (kind byte, payload []byte, err error) {
	if kind, err = fr.r.ReadByte(); err != nil {
		return 0, nil, err
	}
	fr.pos++
	if kind < frameStart || kind > frameEnd {
		return 0, nil, fmt.Errorf("%w at offset %d: unknown frame kind %#x", errTorn, fr.off, kind)
	}
	hdr, err := fr.r.Peek(binary.MaxVarintLen64)
	if err != nil && err != io.EOF {
		return 0, nil, err
	}
	n, w := binary.Uvarint(hdr)
	switch {
	case w <= 0:
		return 0, nil, fmt.Errorf("%w at offset %d: no frame length", errTorn, fr.off)
	case n > maxFramePayload:
		return 0, nil, fmt.Errorf("%w at offset %d: frame length %d exceeds the %d-byte cap", errTorn, fr.off, n, maxFramePayload)
	}
	fr.buf = append(append(fr.buf[:0], kind), hdr[:w]...)
	fr.r.Discard(w)
	at, end := len(fr.buf), len(fr.buf)+int(n)
	fr.buf = slices.Grow(fr.buf, int(n)+4)[:end+4]
	got, err := io.ReadFull(fr.r, fr.buf[at:])
	fr.pos += int64(w + got)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, nil, fmt.Errorf("%w at offset %d: file ends inside a frame", errTorn, fr.off)
	} else if err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(fr.buf[:end]) != binary.LittleEndian.Uint32(fr.buf[end:]) {
		return 0, nil, fmt.Errorf("%w at offset %d", errChecksum, fr.off)
	}
	fr.off = fr.pos
	return kind, fr.buf[at:end], nil
}

// cursor reads a frame payload; the first failure sticks in err.
type cursor struct {
	b   []byte
	err string
}

func (c *cursor) fail(what string) {
	if c.err == "" {
		c.err, c.b = what, nil
	}
}

// done reports whether the payload was read whole and without failure.
func (c *cursor) done() bool {
	if len(c.b) > 0 {
		c.fail("trailing bytes")
	}
	return c.err == ""
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("truncated varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// varint undoes AppendVarint's zigzag.
func (c *cursor) varint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (c *cursor) take(n uint64) []byte {
	if n > uint64(len(c.b)) {
		c.fail("length runs past the frame")
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// count reads an element count. Every element takes at least a byte,
// so a count beyond the remaining payload is corrupt and sizes nothing.
func (c *cursor) count() int {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.fail("count runs past the frame")
		return 0
	}
	return int(n)
}

// id reads a segment-local dictionary ID and maps it to the store's.
func (c *cursor) id(local []uint32, which int) uint32 {
	v := c.uvarint()
	if v >= uint64(len(local)) {
		c.fail(dictKinds[which] + " ID out of range")
		return 0
	}
	return local[v]
}

// pairs reads a (dictionary ID, run count) list.
func (c *cursor) pairs(ids, runs, local []uint32, which int) ([]uint32, []uint32) {
	for n := c.count(); n > 0; n-- {
		ids = append(ids, c.id(local, which))
		runs = append(runs, uint32(c.uvarint()))
	}
	return ids, runs
}

// decoder applies a stream of frames to a store: the one reader behind
// Load and journal replay.
type decoder struct {
	st *Store
	// strict is Load's mode: the segment's dictionaries are the (empty)
	// store's own, so a name may appear once.
	strict bool
	// seen is replay's dedup index, nil for Load.
	seen  map[string]struct{}
	stats *RecoveryStats

	open  bool               // inside a segment
	rows  int                // row frames in this segment
	local [numDicts][]uint32 // segment-local ID → store ID
	row   row
}

// frame applies one checksummed frame. An error here is corruption or a
// writer bug, never a torn write.
func (d *decoder) frame(kind byte, p []byte) error {
	c := cursor{b: p}
	switch {
	case kind == frameStart:
		if len(p) != len(segmentMagic)+1 || string(p[:len(segmentMagic)]) != segmentMagic {
			return errors.New("not an rcastore segment")
		}
		if v := p[len(segmentMagic)]; v != segmentVersion {
			return fmt.Errorf("unsupported segment version %d (want %d)", v, segmentVersion)
		}
		d.open, d.rows = true, 0
		for k := range d.local {
			d.local[k] = d.local[k][:0]
		}
		return nil
	case !d.open:
		return errors.New("frame outside a segment")
	case kind == frameDict:
		d.dict(&c)
	case kind == frameRow:
		d.decodeRow(&c)
	case kind == frameEnd:
		if n := c.uvarint(); c.done() && n != uint64(d.rows) {
			return fmt.Errorf("end frame counts %d rows, segment has %d", n, d.rows)
		}
		d.open = false
	}
	if !c.done() {
		return errors.New(c.err)
	}
	return nil
}

// dict interns a dict frame's names into the store and records where
// each segment-local ID landed.
func (d *decoder) dict(c *cursor) {
	which := c.take(1)
	if len(which) == 0 || which[0] >= numDicts {
		c.fail("unknown dictionary")
		return
	}
	k := int(which[0])
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	d.st.gen++
	dict := d.st.all()[k]
	for n := c.count(); n > 0; n-- {
		name := c.take(c.uvarint())
		if c.err != "" {
			return
		}
		id, known := dict.index[string(name)]
		if known && d.strict {
			c.fail(fmt.Sprintf("duplicate %s dictionary entry %q", dictKinds[k], name))
			return
		}
		if !known {
			id = dict.id(string(name))
		}
		d.local[k] = append(d.local[k], uint32(id))
	}
}

// decodeRow reads a row frame and inserts it, unless replay has already
// seen its session.
func (d *decoder) decodeRow(c *cursor) {
	r := &d.row
	session := c.take(c.uvarint())
	r.cell = c.id(d.local[dictCells], dictCells)
	r.scen = c.id(d.local[dictScens], dictScens)
	r.start = sim.Time(c.varint())
	r.end = r.start + sim.Time(c.varint())
	r.fired = r.fired[:0]
	for n := c.count(); n > 0; n-- {
		r.fired = append(r.fired, c.id(d.local[dictNodes], dictNodes))
	}
	r.chainIDs, r.chainRuns = c.pairs(r.chainIDs[:0], r.chainRuns[:0], d.local[dictChains], dictChains)
	r.causeIDs, r.causeRuns = c.pairs(r.causeIDs[:0], r.causeRuns[:0], d.local[dictCauses], dictCauses)
	if c.uvarint() != 0 {
		c.fail("row carries named metrics")
	}
	if !c.done() {
		return
	}
	d.rows++
	if d.seen != nil {
		if _, dup := d.seen[string(session)]; dup {
			d.stats.Deduped++
			return
		}
	}
	r.session = string(session)
	d.st.insertRow(r)
	if d.seen != nil {
		d.seen[r.session] = struct{}{}
		d.stats.Replayed++
	}
}

// Spill writes the retained store as one checkpoint segment: the five
// dictionaries in ID order, one row frame per record in insertion
// order, and an end frame with the row count. The output is a pure
// function of the store's state — spilling a reloaded spill reproduces
// it byte for byte (pinned by TestSpillReloadRoundTrip).
func (s *Store) Spill(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var e encoder
	e.start()
	for which, d := range s.all() {
		e.dict(which, d.names)
	}
	rows := 0
	var r row
	var at []uint32 // at[k] is the row inserted kth
	for _, b := range s.blocks {
		at = slices.Grow(at[:0], b.n)[:b.n]
		for i, k := range b.order {
			at[k] = uint32(i)
		}
		for _, i := range at {
			b.view(int(i), &r)
			e.row(&r)
			if len(e.out) >= spillFlushBytes {
				if _, err := w.Write(e.out); err != nil {
					return err
				}
				e.out = e.out[:0]
			}
		}
		rows += b.n
	}
	e.end(rows)
	if e.err != nil {
		return e.err
	}
	if _, err := w.Write(e.out); err != nil {
		return err
	}
	s.spills.Add(1)
	return nil
}

// Load rebuilds a store from a Spill stream. The dict frames seed the
// dictionaries in their original order, so IDs — and a subsequent
// Spill — are identical to the source store's. Load is strict: a bad
// checksum, a short frame or a missing or wrong end frame is an error,
// never a shorter store. opts applies fresh: a smaller MaxBlocks than
// the spilling store's re-evicts the oldest rows on the way in.
func Load(r io.Reader, opts Options) (*Store, error) {
	s := New(opts)
	fr := newFrameReader(r)
	if err := fr.legacy(); err != nil {
		return nil, err
	}
	d := decoder{st: s, strict: true}
	for ended := false; ; {
		at := fr.off
		kind, p, err := fr.next()
		switch {
		case err == io.EOF && ended:
			return s, nil
		case err == io.EOF:
			return nil, fmt.Errorf("rcastore: checkpoint ends at offset %d without an end frame", at)
		case err != nil:
			return nil, fmt.Errorf("rcastore: checkpoint: %w", err)
		case ended:
			return nil, fmt.Errorf("rcastore: checkpoint: data after the end frame at offset %d", at)
		}
		if err := d.frame(kind, p); err != nil {
			return nil, fmt.Errorf("rcastore: checkpoint frame at offset %d: %w", at, err)
		}
		ended = kind == frameEnd
	}
}
