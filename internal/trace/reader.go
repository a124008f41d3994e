package trace

import (
	"bufio"
	"bytes"
	"io"
)

// RecordReader is the record half of Reader: Next yields the header
// record first, then every data record in stream order; ReadBatch
// amortizes the per-call overhead for bulk consumers. It returns io.EOF
// at a clean end of stream and makes any other error terminal and
// sticky.
type RecordReader interface {
	// Next returns the next record, io.EOF at a clean end of stream.
	Next() (Record, error)
	// Header returns the stream header once it has been read.
	Header() (Header, bool)
	// ReadBatch returns the next block's records, nil + io.EOF at a
	// clean end of stream. dst is ignored: the batch lives in the
	// reader's storage (see Reader.Recycle). A stream's end or failure
	// right after a block is the following call's.
	ReadBatch(dst []Record) ([]Record, error)
}

var _ RecordReader = (*Reader)(nil)

// decoder is one trace encoding's half of a Reader: decode fills the
// emptied block b with the stream's next block, a header block or data
// rows, or returns the stream's terminal error. ring is the reader's
// block storage, which a JSONL decoder also takes its line buffer from.
type decoder interface {
	decode(b *Block, ring *BlockRing) error
}

// Reader decodes a trace stream, JSONL or binary, a block at a time
// without buffering the full set. ReadBlock yields the blocks in
// columns, the unit stream.Analyzer.PushBlock consumes: a binary
// stream's wire blocks, or up to jsonlBlockLines JSONL lines. Next and
// ReadBatch materialise Records from the same blocks, so a record is
// handed out once its block has been decoded; either encoding of one
// set yields the same records. What a call returned stays valid after
// the reader advances unless Recycle or RecycleInto bounded its
// lifetime. A consumer uses either ReadBlock or the RecordReader
// methods on one reader, not both.
type Reader struct {
	dec  decoder
	hdr  *Header
	err  error      // terminal; the decoder is not asked again
	ring *BlockRing // nil allocates a block per call

	own  Block    // the columns the record path decodes into; no caller sees them
	recs []Record // the records of the last block, in a ring generation
	pos  int      // next of recs to hand out
}

// NewStreamReader returns a JSONL trace reader over r. It accepts
// exactly the format WriteJSONL produces, and foreign telemetry through
// encoding/json, with per-line error reporting.
func NewStreamReader(r io.Reader) *Reader { return &Reader{dec: &jsonlDecoder{r: r}} }

// NewBinaryStreamReader returns a binary columnar trace reader over r.
// The magic header is validated lazily on the first read call.
func NewBinaryStreamReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &Reader{dec: &binaryDecoder{r: br}}
}

// NewAutoStreamReader sniffs the stream's format — the binary magic
// header versus anything else, assumed JSONL — and returns a reader for
// it. This is the file-reading entry point: producers that cannot set a
// content type still get the right decoder.
func NewAutoStreamReader(r io.Reader) *Reader {
	sr := NewBinaryStreamReader(r)
	br := sr.dec.(*binaryDecoder).r
	if pfx, _ := br.Peek(len(binaryMagic)); !bytes.Equal(pfx, []byte(binaryMagic)) {
		sr.dec = &jsonlDecoder{r: br}
	}
	return sr
}

// Binary reports whether the stream is in the binary columnar format.
func (r *Reader) Binary() bool {
	_, ok := r.dec.(*binaryDecoder)
	return ok
}

// SlowLines returns how many JSONL lines decoded so far were not in the
// layout WriteJSONL writes (whitespace, reordered, repeated or unknown
// keys, escapes, nulls, exotic numbers, malformed lines) and went
// through encoding/json, at several times the cost; 0 for binary.
func (r *Reader) SlowLines() int {
	if d, ok := r.dec.(*jsonlDecoder); ok {
		return d.slow
	}
	return 0
}

// Header returns the stream header once it has been read.
func (r *Reader) Header() (Header, bool) {
	if r.hdr == nil {
		return Header{}, false
	}
	return *r.hdr, true
}

// Recycle trades the default lives-forever guarantee for an
// allocation-free steady state: block storage is reused round-robin
// across depth+1 generations, so the block from a ReadBlock call (or
// the records from a ReadBatch or Next call, which live in their
// block's generation) stays intact while depth further blocks are
// decoded and is overwritten in place by the one after. A consumer
// that copies what it keeps before it reads on — stream.Analyzer.PushBlock
// appends a block's columns to its index — needs depth 1 and makes no
// per-record garbage. Call before the first read; depth <= 0 restores
// fresh allocation per block.
func (r *Reader) Recycle(depth int) { r.ring = NewBlockRing(depth) }

// RecycleInto is Recycle with generations the caller owns and may hand
// to the next reader, of either format, when this one is done: a short
// upload then reuses columns already grown, and a JSONL line buffer,
// instead of growing its own. dominod lends each upload a depth-1 ring
// from its pool this way.
func (r *Reader) RecycleInto(ring *BlockRing) { r.ring = ring }

// decode fills the emptied block b with the stream's next block.
func (r *Reader) decode(b *Block) error {
	if r.err == nil {
		if r.err = r.dec.decode(b, r.ring); r.err == nil && b.Header != nil {
			r.hdr = b.Header
		}
	}
	return r.err
}

// ReadBlock returns the stream's next block in columnar form: the
// header block first, then data blocks. A nil block with io.EOF marks a
// clean end of stream; any other error — including plain truncation —
// is terminal and repeated on later calls.
func (r *Reader) ReadBlock() (*Block, error) {
	b := r.ring.next()
	if err := r.decode(b); err != nil {
		return nil, err
	}
	return b, nil
}

// more makes sure a record is left to hand out: when none is, it decodes
// the next block into the reader's own columns and materialises its
// records into a ring generation. Stats rows are decoded straight into
// the generation the records point at. Without a ring, the generation
// is only its arrays, which the records keep; the Block itself stays on
// the stack.
func (r *Reader) more() error {
	if r.pos < len(r.recs) {
		return nil
	}
	gen, b := new(Block), &r.own
	if r.ring != nil {
		gen = r.ring.next()
	}
	b.reset()
	b.Stats = gen.Stats
	if err := r.decode(b); err != nil {
		return err
	}
	r.pos = 0
	if b.Header != nil { // a one-record batch, held like any other
		gen.recs = append(gen.recs[:0], Record{Header: b.Header})
		r.recs = gen.recs
		return nil
	}
	gen.Stats = b.Stats
	r.recs = gen.records(b)
	return nil
}

// Next returns the next record; see RecordReader.
func (r *Reader) Next() (Record, error) {
	if err := r.more(); err != nil {
		return Record{}, err
	}
	r.pos++
	return r.recs[r.pos-1], nil
}

// ReadBatch returns the rest of the current block's records, or the
// next block's (the header's block first); see RecordReader.
func (r *Reader) ReadBatch([]Record) ([]Record, error) {
	if err := r.more(); err != nil {
		return nil, err
	}
	batch := r.recs[r.pos:]
	r.pos = len(r.recs)
	return batch, nil
}

// records materialises the rows of b's columns as Records in merged
// stream order, backed by g's record arrays — except the stats rows,
// which are rows already and are pointed at where they are, in g.Stats
// (more has them decoded there).
func (g *Block) records(b *Block) []Record {
	g.recs = grow(g.recs, len(b.Tags))
	g.dcis = grow(g.dcis, len(b.DCI.At))
	for i := range g.dcis {
		g.dcis[i] = b.DCI.Record(i)
	}
	g.gnbs = grow(g.gnbs, len(b.GNB.At))
	for i := range g.gnbs {
		g.gnbs[i] = b.GNB.Record(i)
	}
	g.pkts = grow(g.pkts, len(b.Pkt.SentAt))
	for i := range g.pkts {
		g.pkts[i] = b.Pkt.Record(i)
	}
	g.rrcs = grow(g.rrcs, len(b.RRC.At))
	for i := range g.rrcs {
		g.rrcs[i] = b.RRC.Record(i)
	}
	var next [NumSeries]int
	for i, t := range b.Tags {
		k := next[t]
		next[t]++
		switch t {
		case SeriesDCI:
			g.recs[i] = Record{DCI: &g.dcis[k]}
		case SeriesGNB:
			g.recs[i] = Record{GNB: &g.gnbs[k]}
		case SeriesPkt:
			g.recs[i] = Record{Packet: &g.pkts[k]}
		case SeriesStats:
			g.recs[i] = Record{Stats: &g.Stats[k]}
		case SeriesRRC:
			g.recs[i] = Record{RRC: &g.rrcs[k]}
		}
	}
	return g.recs
}
