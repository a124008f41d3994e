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

// jsonlDecoder is a Reader's JSONL half: it decodes the stream's lines
// into blocks of up to jsonlBlockLines, in columns. Its scanner hands
// over every buffered whole line as one token; the fast tier finds each
// line's end as it parses it, and only a line left to encoding/json is
// searched for its newline. Lines, line numbers and errors are
// bufio.ScanLines' (FuzzJSONLFraming pins it).
type jsonlDecoder struct {
	r      io.Reader
	sc     *bufio.Scanner // made at the first line, over the ring's buffer
	lines  lineSplit      // sc's split
	tok    []byte         // the scanner's token: whole lines, the next from pos
	pos    int
	lineNo int
	hdr    *Header // the latest header line's
	err    error

	note, cause string  // the latest gNB note and RRC cause, for a later row to reuse
	slow        int     // lines the fast tier left to encoding/json
	pending     *Header // a header line that cut the previous block short
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

// decodeLine decodes the next line, appending a data line's row to b,
// and returns its kind. It returns io.EOF at a clean end of stream; any
// other error is terminal and repeated on later calls.
func (d *jsonlDecoder) decodeLine(b *Block, ring *BlockRing) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if d.pos == len(d.tok) {
		if d.sc == nil {
			d.sc = bufio.NewScanner(d.r)
			d.sc.Buffer(ring.scanBuffer(), maxJSONLLine)
			d.sc.Split(d.lines.split)
		}
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				d.err = fmt.Errorf("trace: line %d: %w", d.lineNo+1, err)
			} else {
				d.err = io.EOF
			}
			return 0, d.err
		}
		d.tok, d.pos = d.sc.Bytes(), 0
	}
	d.lineNo++
	// Fast path: the field-scanning decoder for canonically encoded
	// lines (the overwhelming case — WriteJSONL output and dominod
	// ingest). Anything it does not recognize goes through the
	// reflection path, which doubles as the differential-test oracle.
	p := lineParser{buf: d.tok, pos: d.pos, ok: true}
	if kind := p.decode(b, d); p.ok {
		d.pos = p.pos
		return kind, nil
	}
	d.slow++
	line := d.tok[d.pos:]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, d.pos = line[:i], d.pos+i+1
	} else {
		d.pos = len(d.tok)
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	kind, err := slowDecode(line, b, d)
	if err != nil {
		d.err = fmt.Errorf("trace: line %d: %w", d.lineNo, err)
		return 0, d.err
	}
	return kind, nil
}

// jsonlBlockLines is how many lines one block holds at most.
const jsonlBlockLines = 256

// decode fills b with the next lines: a header line as a header block,
// else up to jsonlBlockLines data lines. A header line arriving after
// data lines ends their block and is the next call's block; a line that
// fails to decode likewise ends the block before it, and its error is
// the next call's.
func (d *jsonlDecoder) decode(b *Block, ring *BlockRing) error {
	if h := d.pending; h != nil {
		b.Header, d.pending = h, nil
		return nil
	}
	for len(b.Tags) < jsonlBlockLines {
		kind, err := d.decodeLine(b, ring)
		switch { // what ends a block is the next call's
		case err != nil && len(b.Tags) == 0:
			return err
		case err != nil:
			return nil
		case kind == lineHeader && len(b.Tags) == 0:
			b.Header = d.hdr
			return nil
		case kind == lineHeader:
			d.pending = d.hdr
			return nil
		}
	}
	return nil
}
