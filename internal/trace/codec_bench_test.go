package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// benchCorpus builds a synthetic record mix shaped like a real session
// trace (mostly DCI, then packets, stats, gNB logs, RRC) for codec
// benchmarks and allocation tests. The fast/stdjson sub-benchmark pairs
// keep the hand-rolled codec and the encoding/json path it replaced side
// by side in one `go test -bench` run.
func benchCorpus() []Record {
	const groups = 500
	recs := make([]Record, 0, groups*9)
	for i := 0; i < groups; i++ {
		at := sim.Time(i) * sim.Millisecond
		for j := 0; j < 4; j++ {
			recs = append(recs, Record{DCI: &DCIRecord{
				At: at + sim.Time(j), Dir: netem.Direction(j % 2), RNTI: 70 + uint32(i%3),
				OwnPRB: 10 + j, OtherPRB: i % 50, MCS: 5 + i%20, TBSBits: 8000 + 13*i,
				UsedBits: 7000 + 11*i, HARQRetx: i%7 == 0, Unused: i%5 == 0,
			}})
		}
		for j := 0; j < 2; j++ {
			recs = append(recs, Record{Packet: &PacketRecord{
				Seq: uint64(i*2 + j), Kind: netem.MediaKind(j), Dir: netem.Direction(j),
				Size: 1200 - j*300, SentAt: at, Arrived: at + 9*sim.Millisecond + sim.Time(i%400),
			}})
		}
		recs = append(recs, Record{Stats: &WebRTCStatsRecord{
			At: at, Local: i%2 == 0, InboundFPS: 29.97, OutboundFPS: 30,
			OutboundHeight: 720, VideoJBDelayMs: 42.5 + float64(i%10),
			TargetBitrateBps: 2.5e6, TrendlineSlope: -1.25e-3, AckedBitrateBps: 2.1e6,
		}})
		recs = append(recs, Record{GNB: &GNBLogRecord{
			At: at, Kind: GNBLogRLCBuffer, Dir: netem.Uplink, BufferBytes: 1000 * (i % 40),
		}})
		if i%100 == 0 {
			recs = append(recs, Record{RRC: &RRCRecord{At: at, Connected: i%200 == 0, RNTI: 70, Cause: "inactivity"}})
		}
	}
	return recs
}

// benchRecords times b.N runs of fn, each over records records, and
// reports ns/rec, rec/s and the exact heap allocations per record
// (single-threaded benchmarks only). The allocation count's two
// runtime.ReadMemStats calls stop the world, so they stay out of the
// timed loop.
func benchRecords(b *testing.B, records int, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(records) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/rec")
	b.ReportMetric(n/b.Elapsed().Seconds(), "rec/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/rec")
}

// BenchmarkCodecEncode compares the hand-rolled append encoder against
// the encoding/json path it replaced.
func BenchmarkCodecEncode(b *testing.B) {
	recs := benchCorpus()
	b.Run("fast", func(b *testing.B) {
		buf := make([]byte, 0, 1024)
		benchRecords(b, len(recs), func() {
			for k := range recs {
				var err error
				buf, err = appendLine(buf[:0], recs[k])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("stdjson", func(b *testing.B) {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		benchRecords(b, len(recs), func() {
			out.Reset()
			for k := range recs {
				data, err := json.Marshal(recordPayload(recs[k]))
				if err != nil {
					b.Fatal(err)
				}
				if err := enc.Encode(jsonLine{Type: recordTypeName(recs[k]), Data: data}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkCodecDecode compares the field-scanning decoder against the
// stdlib double-unmarshal on the same encoded lines.
func BenchmarkCodecDecode(b *testing.B) {
	recs := benchCorpus()
	lines := make([][]byte, len(recs))
	for i := range recs {
		line, err := appendLine(nil, recs[i])
		if err != nil {
			b.Fatal(err)
		}
		lines[i] = line
	}
	// fast is the line decoder alone over the lines in one buffer, as a
	// scanner token holds them, into one block kept across iterations:
	// no scanner, no reader.
	b.Run("fast", func(b *testing.B) {
		stream := append(bytes.Join(lines, []byte("\n")), '\n')
		var blk Block
		var d jsonlDecoder
		benchRecords(b, len(lines), func() {
			blk.reset()
			for pos := 0; pos < len(stream); {
				p := lineParser{buf: stream, pos: pos, ok: true}
				if p.decode(&blk, &d); !p.ok {
					b.Fatal("fast path rejected canonical line")
				}
				pos = p.pos
			}
		})
	})
	// block is the dominod ingest hot path: the same lines as a stream,
	// read in columns with the storage recycled, one reader per
	// iteration as dominod has one per upload.
	b.Run("block", func(b *testing.B) {
		stream := append(bytes.Join(lines, []byte("\n")), '\n')
		benchRecords(b, len(lines), func() {
			if n, err := drainJSONLBlocks(stream); err != io.EOF || n != len(lines) {
				b.Fatalf("decoded %d records: %v", n, err)
			}
		})
	})
	// block-pooled is block on one ring that every iteration's reader
	// borrows, as a node lends its pooled rings to uploads: the columns
	// and the line buffer have grown before the timed reads, so what is
	// timed is the decode alone.
	b.Run("block-pooled", func(b *testing.B) {
		stream := append(bytes.Join(lines, []byte("\n")), '\n')
		ring := NewBlockRing(1)
		benchRecords(b, len(lines), func() {
			if n, err := drainJSONLRing(stream, ring); err != io.EOF || n != len(lines) {
				b.Fatalf("decoded %d records: %v", n, err)
			}
		})
	})
	b.Run("stdjson", func(b *testing.B) {
		benchRecords(b, len(lines), func() {
			for _, line := range lines {
				if _, err := oracleDecodeLine(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// drainJSONLBlocks reads stream to its end through a fresh reader with
// recycled block storage, as a node reads one upload, and returns the
// records read and the error that ended the read.
func drainJSONLBlocks(stream []byte) (n int, err error) {
	return drainJSONLRing(stream, NewBlockRing(1))
}

// drainJSONLRing is drainJSONLBlocks on block storage the caller owns.
func drainJSONLRing(stream []byte, ring *BlockRing) (n int, err error) {
	sr := NewStreamReader(bytes.NewReader(stream))
	sr.RecycleInto(ring)
	for {
		blk, err := sr.ReadBlock()
		if err != nil {
			return n, err
		}
		n += blk.Len()
	}
}

// BenchmarkCodecBinaryEncode measures the binary columnar encoder on
// the same corpus as BenchmarkCodecEncode, so the JSONL and binary
// rows compare record for record.
func BenchmarkCodecBinaryEncode(b *testing.B) {
	recs := benchCorpus()
	hdr := Header{CellName: "bench", Duration: sim.Second}
	var buf bytes.Buffer
	benchRecords(b, len(recs), func() {
		buf.Reset()
		w := NewBinaryWriter(&buf)
		if err := w.WriteHeader(hdr); err != nil {
			b.Fatal(err)
		}
		for k := range recs {
			if err := w.WriteRecord(recs[k]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(float64(buf.Len())/float64(len(recs)), "bytes/rec")
}

// BenchmarkCodecBinaryDecode measures binary decode throughput over the
// encoded corpus through the record path: Records materialised block by
// block (ReadBatch, fresh storage), one reader per iteration.
func BenchmarkCodecBinaryDecode(b *testing.B) {
	benchBinaryDecode(b, func(sr *Reader) (n int, err error) {
		for {
			batch, err := sr.ReadBatch(nil)
			if err != nil {
				return n, err
			}
			n += len(batch)
		}
	})
}

// BenchmarkCodecBinaryDecodeBlock is the same decode stopping at the
// columns (ReadBlock with the storage recycled — the dominod binary
// ingest hot path). It is a sibling rather than a sub-benchmark so that
// the record path keeps the row name its baseline has.
func BenchmarkCodecBinaryDecodeBlock(b *testing.B) {
	benchBinaryDecode(b, func(sr *Reader) (n int, err error) {
		sr.Recycle(1)
		for {
			blk, err := sr.ReadBlock()
			if err != nil {
				return n, err
			}
			n += blk.Len()
		}
	})
}

// benchBinaryDecode times drain over the encoded corpus, one reader per
// iteration as dominod has one per upload; drain returns the number of
// records it read (header included) and the error that ended it.
func benchBinaryDecode(b *testing.B, drain func(*Reader) (int, error)) {
	recs := benchCorpus()
	enc, err := encodeStream(Header{CellName: "bench", Duration: sim.Second}, recs)
	if err != nil {
		b.Fatal(err)
	}
	reader := bytes.NewReader(enc)
	benchRecords(b, len(recs), func() {
		reader.Reset(enc)
		n, err := drain(NewBinaryStreamReader(reader))
		if err != io.EOF {
			b.Fatal(err)
		}
		if n != len(recs)+1 {
			b.Fatalf("decoded %d records", n)
		}
	})
}
