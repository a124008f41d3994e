package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"github.com/domino5g/domino/internal/sim"
)

// Header is the stream metadata carried by a trace's first JSONL line.
// Duration may be zero for open-ended live captures whose length is
// unknown until the stream ends.
type Header struct {
	CellName string
	// Scenario names the generating scenario; empty for plain preset
	// captures, keeping their serialized form unchanged.
	Scenario  string
	Duration  sim.Time
	HasGNBLog bool
}

// Record is one streamed trace line: exactly one field is non-nil. It
// is the unit of ingestion for the streaming analysis subsystem — a
// live collector produces Records in (approximately) timestamp order
// and feeds them to a stream analyzer without ever materializing a
// full Set.
type Record struct {
	Header *Header
	DCI    *DCIRecord
	GNB    *GNBLogRecord
	Packet *PacketRecord
	Stats  *WebRTCStatsRecord
	RRC    *RRCRecord
}

// Time returns the record's primary timestamp (send time for packets)
// and whether it has one; header records carry no timestamp.
func (r Record) Time() (sim.Time, bool) {
	switch {
	case r.DCI != nil:
		return r.DCI.At, true
	case r.GNB != nil:
		return r.GNB.At, true
	case r.Packet != nil:
		return r.Packet.SentAt, true
	case r.Stats != nil:
		return r.Stats.At, true
	case r.RRC != nil:
		return r.RRC.At, true
	}
	return 0, false
}

// StreamReader decodes a JSONL trace incrementally — one record per
// Next call, or up to jsonlBlockLines of them per ReadBlock call, in
// columns — without buffering the full set. It accepts exactly the
// format WriteJSONL produces, with per-line error reporting; the batch
// ReadAuto drains one for a JSONL stream. A consumer uses either
// ReadBlock or the RecordReader methods on one reader, not both.
// Its scanner hands over every buffered whole line as one token; the
// fast tier finds each line's end as it parses it, and only a line left
// to encoding/json is searched for its newline. Lines, line numbers and
// errors are bufio.ScanLines' (FuzzJSONLFraming pins it). A line decodes
// into the block it belongs to: ReadBlock's, or Next's scratch block.
type StreamReader struct {
	r      io.Reader
	sc     *bufio.Scanner // made at the first line, over the ring's buffer
	lines  lineSplit      // sc's split
	tok    []byte         // the scanner's token: whole lines, the next from pos
	pos    int
	lineNo int
	hdr    *Header
	err    error

	note, cause string // the latest gNB note and RRC cause, for a later row to reuse
	one         Block  // the rows Next decodes into, emptied every jsonlBlockLines
	slow        int    // lines the fast tier left to encoding/json

	ring    *BlockRing // ReadBlock's storage; nil allocates a block per call
	pending *Header    // a header line that cut the previous block short
}

// maxJSONLLine caps one line; a longer one fails the stream with
// bufio.ErrTooLong. The scanner starts at jsonlScanBuffer, far below the
// cap, and grows to it on demand: an ingest request is typically a
// fraction of it.
const (
	maxJSONLLine    = 1 << 20
	jsonlScanBuffer = 64 << 10
)

// lineSplit is a reader's split. It splits at the buffer's last
// newline, and at the end of the input takes the rest: it wants more
// input exactly when ScanLines does, so the scanner reads, grows and
// fails with ErrTooLong as under it. The scanner hands it the whole
// partial line again after every read; searched is how much of that
// holds no newline, so a long line in short reads is searched once.
// examined counts the bytes searched, for TestSplitSearchesEachByteOnce.
type lineSplit struct{ searched, examined int }

func (s *lineSplit) split(data []byte, atEOF bool) (int, []byte, error) {
	tail := data[s.searched:]
	s.examined += len(tail)
	if i := bytes.LastIndexByte(tail, '\n'); i >= 0 {
		n := s.searched + i + 1
		s.searched = 0
		return n, data[:n], nil
	}
	if atEOF && len(data) > 0 {
		s.searched = 0
		return len(data), data, nil
	}
	s.searched = len(data)
	return 0, nil, nil
}

// NewStreamReader returns a streaming decoder over r.
func NewStreamReader(r io.Reader) *StreamReader { return &StreamReader{r: r} }

// Header returns the stream header once it has been read.
func (sr *StreamReader) Header() (Header, bool) {
	if sr.hdr == nil {
		return Header{}, false
	}
	return *sr.hdr, true
}

// SlowLines returns how many of the lines consumed so far were not in
// the layout WriteJSONL writes (whitespace, reordered, repeated or
// unknown keys, escapes, nulls, exotic numbers, malformed lines) and
// went through encoding/json, at several times the cost.
func (sr *StreamReader) SlowLines() int { return sr.slow }

// decodeLine decodes the next line, appending a data line's row to b,
// and returns its kind. It returns io.EOF at a clean end of stream; any
// other error is terminal and repeated on later calls.
func (sr *StreamReader) decodeLine(b *Block) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	if sr.pos == len(sr.tok) {
		if sr.sc == nil {
			sr.sc = bufio.NewScanner(sr.r)
			sr.sc.Buffer(sr.ring.scanBuffer(), maxJSONLLine)
			sr.sc.Split(sr.lines.split)
		}
		if !sr.sc.Scan() {
			if err := sr.sc.Err(); err != nil {
				sr.err = fmt.Errorf("trace: line %d: %w", sr.lineNo+1, err)
			} else {
				sr.err = io.EOF
			}
			return 0, sr.err
		}
		sr.tok, sr.pos = sr.sc.Bytes(), 0
	}
	sr.lineNo++
	// Fast path: the field-scanning decoder for canonically encoded
	// lines (the overwhelming case — WriteJSONL output and dominod
	// ingest). Anything it does not recognize goes through the
	// reflection path, which doubles as the differential-test oracle.
	p := lineParser{buf: sr.tok, pos: sr.pos, ok: true}
	if kind := p.decode(b, sr); p.ok {
		sr.pos = p.pos
		return kind, nil
	}
	sr.slow++
	line := sr.tok[sr.pos:]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, sr.pos = line[:i], sr.pos+i+1
	} else {
		sr.pos = len(sr.tok)
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	kind, err := slowDecode(line, b, sr)
	if err != nil {
		sr.err = fmt.Errorf("trace: line %d: %w", sr.lineNo, err)
		return 0, sr.err
	}
	return kind, nil
}

// Next returns the next record. It returns io.EOF at a clean end of
// stream; any other error is terminal and repeated on later calls.
func (sr *StreamReader) Next() (Record, error) {
	if len(sr.one.Tags) == jsonlBlockLines {
		sr.one.reset()
	}
	kind, err := sr.decodeLine(&sr.one)
	switch {
	case err != nil:
		return Record{}, err
	case kind == lineHeader:
		return Record{Header: sr.hdr}, nil
	}
	return sr.one.lastRecord(kind), nil
}

// jsonlBlockLines is how many lines ReadBlock decodes into one block.
const jsonlBlockLines = 256

// ReadBlock returns the next lines in columnar form, the unit
// stream.Analyzer.PushBlock consumes: a header line as a header block,
// else up to jsonlBlockLines data lines. A header line arriving after
// data lines ends their block and is the next call's block; a line that
// fails to decode likewise ends the block before it, and its error is
// the next call's. A nil block with io.EOF marks a clean end of stream.
// Blocks are freshly allocated unless Recycle or RecycleInto bounded
// their lifetime.
func (sr *StreamReader) ReadBlock() (*Block, error) {
	if h := sr.pending; h != nil {
		sr.pending = nil
		return &Block{Header: h}, nil
	}
	b := sr.ring.next()
	for len(b.Tags) < jsonlBlockLines {
		kind, err := sr.decodeLine(b)
		switch { // what ends a block is the next call's
		case err != nil && len(b.Tags) == 0:
			return nil, err
		case err != nil:
			return b, nil
		case kind == lineHeader && len(b.Tags) == 0:
			b.Header = sr.hdr
			return b, nil
		case kind == lineHeader:
			sr.pending = sr.hdr
			return b, nil
		}
	}
	return b, nil
}

// Recycle is BinaryStreamReader.Recycle for ReadBlock: block storage is
// reused round-robin across depth+1 generations, so a block stays
// intact while depth further blocks are read and is overwritten in
// place by the one after. Call before the first read; depth <= 0
// restores a fresh block per call.
func (sr *StreamReader) Recycle(depth int) { sr.ring = NewBlockRing(depth) }

// RecycleInto is Recycle with generations the caller owns and may hand
// to the next reader when this one is done: a short upload then reuses
// columns already grown, and the line scanner's buffer, instead of
// growing its own.
func (sr *StreamReader) RecycleInto(ring *BlockRing) { sr.ring = ring }
