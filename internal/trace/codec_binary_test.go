package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// drainReader collects every record a reader yields until io.EOF.
func drainReader(t *testing.T, r RecordReader) []Record {
	t.Helper()
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, rec)
	}
}

// TestBinaryMatchesJSONLRecordStream pins the core differential
// contract: decoding the binary encoding of a set yields exactly the
// record stream of its JSONL encoding — same order, same values,
// header first. JSONL is the oracle.
func TestBinaryMatchesJSONLRecordStream(t *testing.T) {
	set := sampleSet()

	var jbuf, bbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, set); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bbuf, set); err != nil {
		t.Fatal(err)
	}

	want := drainReader(t, NewStreamReader(&jbuf))
	got := drainReader(t, NewBinaryStreamReader(&bbuf))
	if len(got) != len(want) {
		t.Fatalf("record count: binary %d, jsonl %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d:\nbinary %+v\njsonl  %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryHeaderAndBatch(t *testing.T) {
	set := sampleSet()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, set); err != nil {
		t.Fatal(err)
	}
	sr := NewBinaryStreamReader(&buf)
	if _, ok := sr.Header(); ok {
		t.Fatal("header available before reading")
	}
	first, err := sr.ReadBatch(nil)
	if err != nil || len(first) != 1 || first[0].Header == nil {
		t.Fatalf("first batch = %v, %v; want one header record", first, err)
	}
	hdr, ok := sr.Header()
	if !ok || hdr.CellName != set.CellName || hdr.Duration != set.Duration || hdr.HasGNBLog != set.HasGNBLog {
		t.Fatalf("header = %+v, %v", hdr, ok)
	}
	n := 0
	for {
		batch, err := sr.ReadBatch(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(batch)
	}
	if want := len(set.DCI) + len(set.GNBLogs) + len(set.Packets) + len(set.Stats) + len(set.RRC); n != want {
		t.Fatalf("batched records = %d, want %d", n, want)
	}
	// Terminal io.EOF is sticky.
	if _, err := sr.ReadBatch(nil); err != io.EOF {
		t.Fatalf("after EOF: %v", err)
	}
}

// TestJSONLReadBatch: a JSONL batch is one block's records, the header
// first on its own, then at most jsonlBlockLines per call.
func TestJSONLReadBatch(t *testing.T) {
	recs := append([]Record{{Header: &Header{CellName: "bench"}}}, benchCorpus()...)
	var stream []byte
	for _, rec := range recs {
		var err error
		if stream, err = appendLine(stream, rec); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, '\n')
	}
	sr := NewStreamReader(bytes.NewReader(stream))
	var got []Record
	for {
		batch, err := sr.ReadBatch(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > jsonlBlockLines || (len(got) == 0) != (batch[0].Header != nil) {
			t.Fatalf("batch %d records in: %d records, header first %v", len(got), len(batch), batch[0].Header != nil)
		}
		got = append(got, batch...)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("%d records batched, want the %d written", len(got), len(recs))
	}
}

// TestHeaderBatchOutlivesTheNext: without Recycle a batch stays valid
// while the reader advances, a header batch too — JSONL may carry a
// second header line, which is a batch of its own.
func TestHeaderBatchOutlivesTheNext(t *testing.T) {
	sr := NewStreamReader(strings.NewReader(`{"type":"header","data":{"cell_name":"a","duration_us":1,"has_gnb_log":false}}
{"type":"header","data":{"cell_name":"b","duration_us":2,"has_gnb_log":false}}
`))
	first, err := sr.ReadBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sr.ReadBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Header.CellName != "a" || second[0].Header.CellName != "b" {
		t.Fatalf("header batches read %q then %q, want a then b", first[0].Header.CellName, second[0].Header.CellName)
	}
}

func TestAutoStreamReaderSniffs(t *testing.T) {
	set := sampleSet()
	var jbuf, bbuf bytes.Buffer
	if err := WriteJSONL(&jbuf, set); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bbuf, set); err != nil {
		t.Fatal(err)
	}
	want := len(set.DCI) + len(set.GNBLogs) + len(set.Packets) + len(set.Stats) + len(set.RRC) + 1
	for name, buf := range map[string]*bytes.Buffer{"jsonl": &jbuf, "binary": &bbuf} {
		recs := drainReader(t, NewAutoStreamReader(buf))
		if len(recs) != want {
			t.Fatalf("%s: sniffed reader yielded %d records, want %d", name, len(recs), want)
		}
	}
}

// TestBinaryFailFast mirrors the JSONL header-first tests: corrupt
// or truncated streams must produce a terminal error, never a silent
// short read.
func TestBinaryFailFast(t *testing.T) {
	var full bytes.Buffer
	if err := WriteBinary(&full, sampleSet()); err != nil {
		t.Fatal(err)
	}
	valid := full.Bytes()

	// A stream cut anywhere before the final byte must error: every
	// prefix either breaks a frame mid-payload or drops the end frame.
	for _, cut := range []int{0, 3, len(binaryMagic), len(binaryMagic) + 1, len(valid) / 2, len(valid) - 1} {
		recs, err := drainAll(NewBinaryStreamReader(bytes.NewReader(valid[:cut])))
		if err == nil || err == io.EOF {
			t.Fatalf("cut at %d: got %d records and err %v, want terminal error", cut, len(recs), err)
		}
	}

	corrupt := func(name string, mutate func(b []byte) []byte, wantSub string) {
		t.Helper()
		b := mutate(append([]byte(nil), valid...))
		_, err := drainAll(NewBinaryStreamReader(bytes.NewReader(b)))
		if err == nil || err == io.EOF {
			t.Fatalf("%s: no error", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q missing %q", name, err, wantSub)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic")
	corrupt("bad version", func(b []byte) []byte { b[7] = '9'; return b }, "bad magic")
	corrupt("unknown frame kind", func(b []byte) []byte { b[8] = 0x7f; return b }, "unknown frame kind")
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0x01) }, "trailing data")
	corrupt("giant frame length", func(b []byte) []byte {
		out := append([]byte(nil), b[:9]...)
		out = binary.AppendUvarint(out, maxBinaryFramePayload+1)
		return append(out, b[9:]...)
	}, "exceeds limit")

	// A block frame before any header frame (strip dict+header frames,
	// keep magic) must fail with a decode error, not succeed.
	cur := len(binaryMagic)
	for i := 0; i < 2; i++ { // dict, header
		kind := valid[cur]
		plen, n := binary.Uvarint(valid[cur+1:])
		if n <= 0 {
			t.Fatalf("frame %d: bad varint", i)
		}
		if i == 0 && kind != frameDict || i == 1 && kind != frameHeader {
			t.Fatalf("frame %d: unexpected kind %d", i, kind)
		}
		cur += 1 + n + int(plen)
	}
	headless := append([]byte(binaryMagic), valid[cur:]...)
	if _, err := drainAll(NewBinaryStreamReader(bytes.NewReader(headless))); err == nil || err == io.EOF {
		t.Fatal("block without header frame: no error")
	}
}

func drainAll(r RecordReader) ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, io.EOF
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// frameClaim is a stream whose header frame claims the largest payload
// the reader admits and carries none of it: 13 bytes.
var frameClaim = binary.AppendUvarint(append([]byte(binaryMagic), frameHeader), maxBinaryFramePayload)

// TestFramePayloadGrowsWithBytes pins a frame's payload buffer to the
// bytes that arrive, not the length the frame claims: the 13-byte
// claim of a 128 MiB payload allocates under 1 MiB and fails as a
// truncated payload, and a header frame sixty times the initial
// buffer, read in pieces, still round-trips.
func TestFramePayloadGrowsWithBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := drainAll(NewBinaryStreamReader(bytes.NewReader(frameClaim)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame payload") {
		t.Fatalf("claimed payload: err %v, want a truncated frame payload", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte stream allocated %d B, want < 1 MiB", len(frameClaim), got)
	}

	hdr := Header{CellName: strings.Repeat("c", 60<<14), Duration: 5}
	enc, err := encodeStream(hdr, []Record{{DCI: &DCIRecord{At: 1, RNTI: 70}}})
	if err != nil {
		t.Fatal(err)
	}
	recs := drainReader(t, NewBinaryStreamReader(iotest.HalfReader(bytes.NewReader(enc))))
	if len(recs) != 2 || !reflect.DeepEqual(*recs[0].Header, hdr) || *recs[1].DCI != (DCIRecord{At: 1, RNTI: 70}) {
		t.Fatalf("a large header frame did not round-trip: %d records", len(recs))
	}
}

func TestBinaryWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.WriteRecord(Record{DCI: &DCIRecord{}}); err == nil {
		t.Fatal("record before header accepted")
	}
	w = NewBinaryWriter(&buf)
	if err := w.Close(); err == nil {
		t.Fatal("close before header accepted")
	}
	w = NewBinaryWriter(&buf)
	if err := w.WriteHeader(Header{CellName: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(Header{CellName: "c"}); err == nil {
		t.Fatal("duplicate header accepted")
	}
}

// TestBinaryMultiBlockDict checks that strings first appearing deep in
// the stream (after the first dict frame) round-trip: dict frames are
// emitted incrementally before the block that needs them.
func TestBinaryMultiBlockDict(t *testing.T) {
	set := &Set{CellName: "cell", Duration: sim.Second, HasGNBLog: true}
	for i := 0; i < 3*defaultBinaryBlockSize; i++ {
		set.GNBLogs = append(set.GNBLogs, GNBLogRecord{
			At:   sim.Time(i) * sim.Millisecond,
			Kind: GNBLogRRC,
			Note: "note-" + string(rune('a'+i/defaultBinaryBlockSize)),
		})
		set.RRC = append(set.RRC, RRCRecord{
			At:    sim.Time(i)*sim.Millisecond + 1,
			Cause: "cause-" + string(rune('a'+i/(defaultBinaryBlockSize/2))),
		})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, set); err != nil {
		t.Fatal(err)
	}
	recs := drainReader(t, NewBinaryStreamReader(&buf))
	if len(recs) != 1+len(set.GNBLogs)+len(set.RRC) {
		t.Fatalf("got %d records", len(recs))
	}
	gi, ri := 0, 0
	for _, rec := range recs[1:] {
		switch {
		case rec.GNB != nil:
			if rec.GNB.Note != set.GNBLogs[gi].Note {
				t.Fatalf("gnb %d note = %q, want %q", gi, rec.GNB.Note, set.GNBLogs[gi].Note)
			}
			gi++
		case rec.RRC != nil:
			if rec.RRC.Cause != set.RRC[ri].Cause {
				t.Fatalf("rrc %d cause = %q, want %q", ri, rec.RRC.Cause, set.RRC[ri].Cause)
			}
			ri++
		}
	}
}

// encodeStream encodes a header plus records through the streaming
// writer (the dominod-shaped path, no Set in sight).
func encodeStream(hdr Header, recs []Record) ([]byte, error) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.WriteHeader(hdr); err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fuzzRecords deterministically derives a record list (arbitrary
// values, including negative timestamps and raw float bit patterns)
// from fuzz input bytes.
func fuzzRecords(data []byte) (Header, []Record) {
	hdr := Header{CellName: "fuzz-cell", Duration: sim.Second}
	var recs []Record
	u64 := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		n := 8
		if len(data) < n {
			n = len(data)
		}
		var b [8]byte
		copy(b[:], data[:n])
		data = data[n:]
		return binary.LittleEndian.Uint64(b[:])
	}
	i64 := func() int64 { return int64(u64()) }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	str := func() string {
		v := u64()
		return string(rune('a'+v%26)) + string(rune('0'+(v>>8)%10))
	}
	for len(data) > 0 {
		kind := data[0] % 5
		data = data[1:]
		switch kind {
		case 0:
			recs = append(recs, Record{DCI: &DCIRecord{
				At: sim.Time(i64()), Dir: netem.Direction(i64()), RNTI: uint32(u64()),
				OwnPRB: int(i64()), OtherPRB: int(i64()), MCS: int(i64()),
				TBSBits: int(i64()), UsedBits: int(i64()),
				HARQRetx: u64()%2 == 0, RLCRetx: u64()%3 == 0,
				Proactive: u64()%5 == 0, Unused: u64()%7 == 0,
			}})
		case 1:
			recs = append(recs, Record{GNB: &GNBLogRecord{
				At: sim.Time(i64()), Kind: GNBLogKind(i64()), Dir: netem.Direction(i64()),
				BufferBytes: int(i64()), RNTI: uint32(u64()), Note: str(),
			}})
		case 2:
			recs = append(recs, Record{Packet: &PacketRecord{
				Seq: u64(), Kind: netem.MediaKind(i64()), Dir: netem.Direction(i64()),
				Size: int(i64()), SentAt: sim.Time(i64()), Arrived: sim.Time(i64()),
			}})
		case 3:
			recs = append(recs, Record{Stats: &WebRTCStatsRecord{
				At: sim.Time(i64()), Local: u64()%2 == 0,
				InboundFPS: f64(), OutboundFPS: f64(), OutboundHeight: int(i64()),
				InboundHeight: int(i64()), VideoJBDelayMs: f64(), AudioJBDelayMs: f64(),
				MinJBDelayMs: f64(), FrozenNow: u64()%2 == 0, FreezeTotalMs: f64(),
				ConcealedSamples: u64(), TotalSamples: u64(), TargetBitrateBps: f64(),
				PushbackRateBps: f64(), OutstandingBytes: int(i64()), CongestionWindow: int(i64()),
				GCCNetState: GCCState(i64()), TrendlineSlope: f64(), TrendlineThreshold: f64(),
				AckedBitrateBps: f64(),
			}})
		case 4:
			recs = append(recs, Record{RRC: &RRCRecord{
				At: sim.Time(i64()), Connected: u64()%2 == 0, RNTI: uint32(u64()), Cause: str(),
			}})
		}
	}
	return hdr, recs
}

// TestBinaryQuickRoundTrip drives randomized records of every type, and
// the header, through WriteBinary and back: a field added to a record
// struct and left out of the writer's or the reader's column list comes
// back zero and fails here, whether or not any scenario sets it.
func TestBinaryQuickRoundTrip(t *testing.T) {
	roundTrip := func(set Set) bool {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, &set); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &set) {
			t.Errorf("binary round trip:\n got %+v\nwant %+v", got, &set)
			return false
		}
		return true
	}
	for _, fn := range []any{
		func(h Header) bool {
			return roundTrip(Set{CellName: h.CellName, Scenario: h.Scenario, Duration: h.Duration, HasGNBLog: h.HasGNBLog})
		},
		func(v DCIRecord) bool { return roundTrip(Set{DCI: []DCIRecord{v}}) },
		func(v GNBLogRecord) bool { return roundTrip(Set{GNBLogs: []GNBLogRecord{v}}) },
		func(v PacketRecord) bool { return roundTrip(Set{Packets: []PacketRecord{v}}) },
		func(v WebRTCStatsRecord) bool { return roundTrip(Set{Stats: []WebRTCStatsRecord{v}}) },
		func(v RRCRecord) bool { return roundTrip(Set{RRC: []RRCRecord{v}}) },
	} {
		if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzBinaryRoundTrip checks encode→decode ≡ input for arbitrary
// record values. Fidelity is asserted by re-encoding the decoded
// stream: the bytes must match the original encoding exactly, which
// (with an injective per-field encoding) holds only if every field —
// including raw NaN bit patterns DeepEqual cannot compare — survived.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{3, 0xff, 0x80, 7, 9, 0x41}, 40))
	// 1 100 RRC rows, three blocks, with a new cause every hundred rows:
	// the second and third block each follow a dict frame.
	var long []byte
	for i := 0; i < 1100; i++ {
		long = append(append(long, 4), bytes.Repeat([]byte{byte(i)}, 24)...) // kind; At, Connected, RNTI
		long = append(long, byte(i/100), 0, 0, 0, 0, 0, 0, 0)                // Cause
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs := fuzzRecords(data)
		enc1, err := encodeStream(hdr, recs)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		sr := NewBinaryStreamReader(bytes.NewReader(enc1))
		var decoded []Record
		for {
			rec, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			decoded = append(decoded, rec)
		}
		if len(decoded) != len(recs)+1 {
			t.Fatalf("decoded %d records, want %d", len(decoded), len(recs)+1)
		}
		if decoded[0].Header == nil {
			t.Fatal("first decoded record is not the header")
		}
		enc2, err := encodeStream(*decoded[0].Header, decoded[1:])
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encoded stream differs (%d vs %d bytes)", len(enc1), len(enc2))
		}
	})
}

// FuzzBinaryStreamReader feeds arbitrary bytes to the decoder: it must
// terminate with io.EOF or an error, never panic or loop — the binary
// analog of FuzzReadJSONL. Read by ReadBlock, as the node reads a body,
// a stream that arrives one byte per read decodes as it does in one
// read: the same blocks, and the same error.
func FuzzBinaryStreamReader(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteBinary(&valid, sampleSet()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(binaryMagic))
	f.Add([]byte("{}"))
	f.Add(frameClaim)
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(valid.Bytes()[:valid.Len()-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := readBlocks(bytes.NewReader(data))
		bytewise, bytewiseErr := readBlocks(iotest.OneByteReader(bytes.NewReader(data)))
		if fmt.Sprint(bytewiseErr) != fmt.Sprint(err) || !slices.Equal(bytewise, blocks) {
			t.Fatalf("one-byte reads decode differently: %d blocks, %v; whole read: %d blocks, %v", len(bytewise), bytewiseErr, len(blocks), err)
		}
		sr := NewBinaryStreamReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			_, err := sr.Next()
			if err != nil {
				break
			}
			if i > 1<<20 {
				t.Fatal("reader yielded over a million records from fuzz input")
			}
		}
	})
}

// readBlocks decodes a stream by ReadBlock, each block printed, up to
// the error that ends it: io.EOF for a whole stream.
func readBlocks(r io.Reader) ([]string, error) {
	sr := NewBinaryStreamReader(r)
	var out []string
	for {
		b, err := sr.ReadBlock()
		if err != nil {
			return out, err
		}
		if b.Header != nil {
			out = append(out, fmt.Sprintf("%+v", *b.Header))
			continue
		}
		out = append(out, fmt.Sprintf("%+v", *b))
	}
}

// TestBinaryRecycle pins the bounded-lifetime decode mode: with a
// recycle ring installed, streamed records still match a fresh-storage
// decode value-for-value as long as each batch is consumed before
// depth further blocks are decoded — and storage really is reused (a
// batch's backing array is overwritten once the ring wraps).
func TestBinaryRecycle(t *testing.T) {
	recs := benchCorpus()
	enc, err := encodeStream(Header{CellName: "bench", Duration: sim.Time(len(recs)) * 100}, recs)
	if err != nil {
		t.Fatal(err)
	}
	want := drainReader(t, NewBinaryStreamReader(bytes.NewReader(enc)))

	for _, depth := range []int{1, 3} {
		sr := NewBinaryStreamReader(bytes.NewReader(enc))
		sr.Recycle(depth)
		var got []Record
		for {
			batch, err := sr.ReadBatch(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			// Copy record VALUES out before the ring wraps: the
			// pointers themselves go stale by design.
			for _, r := range batch {
				switch {
				case r.Header != nil:
					h := *r.Header
					got = append(got, Record{Header: &h})
				case r.DCI != nil:
					v := *r.DCI
					got = append(got, Record{DCI: &v})
				case r.GNB != nil:
					v := *r.GNB
					got = append(got, Record{GNB: &v})
				case r.Packet != nil:
					v := *r.Packet
					got = append(got, Record{Packet: &v})
				case r.Stats != nil:
					v := *r.Stats
					got = append(got, Record{Stats: &v})
				case r.RRC != nil:
					v := *r.RRC
					got = append(got, Record{RRC: &v})
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("depth %d: %d records, want %d", depth, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("depth %d: record %d diverges from fresh-storage decode:\ngot  %+v\nwant %+v",
					depth, i, got[i], want[i])
			}
		}
	}

	t.Run("blocks", func(t *testing.T) { testRecycleBlocks(t, enc, want) })

	// The reuse is real: after the ring wraps, an earlier batch's
	// backing storage holds later records.
	sr := NewBinaryStreamReader(bytes.NewReader(enc))
	sr.Recycle(1)
	if _, err := sr.ReadBatch(nil); err != nil { // header batch
		t.Fatal(err)
	}
	first, err := sr.ReadBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]Record, len(first))
	copy(snap, first)
	overwritten := false
	for {
		if _, err := sr.ReadBatch(nil); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		for i := range first {
			if !reflect.DeepEqual(first[i], snap[i]) {
				overwritten = true
			}
		}
		if overwritten {
			break
		}
	}
	if !overwritten {
		t.Fatal("Recycle(1) never reused the first block's storage")
	}
}

// testRecycleBlocks is TestBinaryRecycle's ReadBlock case: a block
// holds the fresh-storage decode's values (want, header included),
// stays intact while depth further blocks are decoded, and only the
// block after those reuses its storage.
func testRecycleBlocks(t *testing.T, enc []byte, want []Record) {
	want = want[1:]
	values := BlockRecords

	for _, depth := range []int{1, 3} {
		sr := NewBinaryStreamReader(bytes.NewReader(enc))
		sr.Recycle(depth)
		if hdr, err := sr.ReadBlock(); err != nil || hdr.Header == nil || hdr.Len() != 1 {
			t.Fatalf("depth %d: first block = %+v, %v; want the header block", depth, hdr, err)
		}
		var blocks []*Block
		var snaps [][]Record
		n := 0
		for {
			b, err := sr.ReadBlock()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			snap := values(b)
			if !reflect.DeepEqual(snap, want[n:n+b.Len()]) {
				t.Fatalf("depth %d: block %d diverges from the fresh-storage decode", depth, len(blocks))
			}
			n += b.Len()
			blocks, snaps = append(blocks, b), append(snaps, snap)
			k := len(blocks) - 1
			for back := 1; back <= depth && back <= k; back++ {
				if !reflect.DeepEqual(values(blocks[k-back]), snaps[k-back]) {
					t.Fatalf("depth %d: block %d overwritten after only %d further ReadBlocks", depth, k-back, back)
				}
			}
			if k > depth {
				if blocks[k-depth-1] != b {
					t.Fatalf("depth %d: block %d did not reuse block %d's storage", depth, k, k-depth-1)
				}
			}
		}
		if n != len(want) || len(blocks) <= depth+1 {
			t.Fatalf("depth %d: %d records in %d blocks, want %d records in more than %d blocks", depth, n, len(blocks), len(want), depth+1)
		}
	}
}

// TestBinaryDecodeRecycledAllocs pins the allocation contract the
// dominod ingest path relies on: with recycling enabled, steady-state
// decode allocates (amortized) nothing per record.
func TestBinaryDecodeRecycledAllocs(t *testing.T) {
	recs := benchCorpus()
	enc, err := encodeStream(Header{CellName: "bench"}, recs)
	if err != nil {
		t.Fatal(err)
	}
	reader := bytes.NewReader(enc)
	// Warm a single long-lived reader? No — dominod builds one reader
	// per session, so the honest bound includes ring growth; amortized
	// over the corpus it must still be far below the fresh-storage
	// cost (one backing array per series per block).
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		reader.Reset(enc)
		sr := NewBinaryStreamReader(reader)
		sr.Recycle(1)
		n = 0
		for {
			batch, err := sr.ReadBatch(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(batch)
		}
	})
	if perRec := allocs / float64(n); perRec > 0.02 {
		t.Fatalf("recycled binary decode allocates %.4f allocs/record (total %.0f for %d records)", perRec, allocs, n)
	}
}

// TestJSONLBlockDecodeAllocs is the same contract on JSONL: once the
// ring's columns have grown, ReadBlock over canonical lines allocates
// nothing. The corpus' strings are the empty gNB note, which costs
// nothing, and one RRC cause, which the decoder reuses from the previous
// RRC line instead of allocating it again; a Note or Cause that differs
// from the line before costs its one string.
func TestJSONLBlockDecodeAllocs(t *testing.T) {
	var input []byte
	for i := 0; i < 3; i++ {
		for _, rec := range benchCorpus() {
			var err error
			if input, err = appendLine(input, rec); err != nil {
				t.Fatal(err)
			}
			input = append(input, '\n')
		}
	}
	sr := NewStreamReader(bytes.NewReader(input))
	sr.Recycle(1)
	read := func() {
		if b, err := sr.ReadBlock(); err != nil || b.Len() != jsonlBlockLines {
			t.Fatalf("block of %d, %v", b.Len(), err)
		}
	}
	for i := 0; i < 4; i++ { // grow both generations, and the scanner
		read()
	}
	if allocs := testing.AllocsPerRun(40, read); allocs != 0 {
		t.Fatalf("steady-state JSONL ReadBlock allocates %v per block, want 0", allocs)
	}
}

// TestJSONLReadBlockAllocsPerRecord bounds a whole upload where
// TestJSONLBlockDecodeAllocs pins the steady state at zero: reader,
// scanner buffer and both block generations included, reading the
// corpus costs 0.0849 allocations per record (340 for 4 005 lines, PR
// 20), and the ceiling is 1.3 × that.
func TestJSONLReadBlockAllocsPerRecord(t *testing.T) {
	var stream []byte
	for _, rec := range benchCorpus() {
		var err error
		if stream, err = appendLine(stream, rec); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, '\n')
	}
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if n, err = drainJSONLBlocks(stream); err != io.EOF {
			t.Fatal(err)
		}
	})
	if perRec := allocs / float64(n); perRec > 0.1103 {
		t.Fatalf("JSONL ReadBlock allocates %.4f per record (%.0f for %d records), ceiling 0.1103", perRec, allocs, n)
	}
}

// TestBinaryDecodeAllocs bounds the record path's allocation cost from a
// fresh reader: block-granular backing arrays only, 0.0227 allocations
// per record on the corpus (91 for 4 005, PR 20), ceiling 1.3 × that.
func TestBinaryDecodeAllocs(t *testing.T) {
	recs := benchCorpus()
	enc, err := encodeStream(Header{CellName: "bench"}, recs)
	if err != nil {
		t.Fatal(err)
	}
	reader := bytes.NewReader(enc)
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		reader.Reset(enc)
		sr := NewBinaryStreamReader(reader)
		n = 0
		for {
			batch, err := sr.ReadBatch(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(batch)
		}
	})
	if perRec := allocs / float64(n); perRec > 0.0295 {
		t.Fatalf("binary decode allocates %.4f allocs/record (total %.0f for %d records), ceiling 0.0295", perRec, allocs, n)
	}
}

// TestBinaryEncodeAllocs is the writer's side of the same bound: frame
// buffers per stream and the pending block's columns growing to a
// block's size once, not per record — 0.0544 per record on the corpus
// (218 for 4 005, the output buffer's growth included).
func TestBinaryEncodeAllocs(t *testing.T) {
	recs := benchCorpus()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := encodeStream(Header{CellName: "bench", Duration: sim.Second}, recs); err != nil {
			t.Fatal(err)
		}
	})
	if perRec := allocs / float64(len(recs)); perRec > 0.0908 {
		t.Fatalf("binary encode allocates %.4f allocs/record (total %.0f for %d records), ceiling 0.0908", perRec, allocs, len(recs))
	}
}
