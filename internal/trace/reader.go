package trace

import (
	"bufio"
	"bytes"
	"io"
)

// RecordReader is the streaming decode interface shared by the JSONL
// and binary trace readers: Next yields the header record first, then
// every data record in stream order; ReadBatch amortizes the per-call
// overhead for bulk consumers. Both readers return io.EOF at a clean
// end of stream and make any other error terminal and sticky.
type RecordReader interface {
	// Next returns the next record, io.EOF at a clean end of stream.
	Next() (Record, error)
	// Header returns the stream header once it has been read.
	Header() (Header, bool)
	// ReadBatch returns the next batch of records, nil + io.EOF at a
	// clean end of stream. The JSONL reader fills dst's backing array
	// (growing a default-sized one when dst has no capacity); the
	// binary reader ignores dst and returns one block per call from
	// its own storage — fresh per block, or reused round-robin once
	// the consumer called BinaryStreamReader.Recycle or RecycleInto.
	// A non-empty batch is returned with a nil error even when the
	// stream ends or fails right after it; the terminal error
	// resurfaces on the following call.
	ReadBatch(dst []Record) ([]Record, error)
}

var (
	_ RecordReader = (*StreamReader)(nil)
	_ RecordReader = (*BinaryStreamReader)(nil)
)

// ReadBatch fills dst (up to its capacity; a default capacity of 256
// is used when dst has none) with consecutive records. See
// RecordReader.ReadBatch for the error contract.
func (sr *StreamReader) ReadBatch(dst []Record) ([]Record, error) {
	if cap(dst) == 0 {
		dst = make([]Record, 0, 256)
	}
	dst = dst[:0]
	for len(dst) < cap(dst) {
		rec, err := sr.Next()
		if err != nil {
			if len(dst) > 0 {
				return dst, nil
			}
			return nil, err
		}
		dst = append(dst, rec)
	}
	return dst, nil
}

// NewAutoStreamReader sniffs the stream's format — the binary magic
// header versus anything else, assumed JSONL — and returns the
// matching reader. This is the `-stdin` and file-reading entry point:
// producers that cannot set a content type still get the right
// decoder.
func NewAutoStreamReader(r io.Reader) RecordReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	pfx, _ := br.Peek(len(binaryMagic))
	if bytes.Equal(pfx, []byte(binaryMagic)) {
		return NewBinaryStreamReader(br)
	}
	return NewStreamReader(br)
}
