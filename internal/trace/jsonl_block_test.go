package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// fastAcceptLines are hand-picked lines in the fast decoder's subset:
// appendRow's layout, with any member absent.
var fastAcceptLines = []string{
	`{"type":"header","data":{"cell_name":"c","duration_us":5,"has_gnb_log":true}}`,
	`{"type":"header","data":{"cell_name":"c","scenario":"s","duration_us":5,"has_gnb_log":false}}`,
	`{"type":"dci","data":{"At":1,"Dir":0,"RNTI":70,"OwnPRB":2,"OtherPRB":3,"MCS":4,"TBSBits":5,"UsedBits":6,"HARQRetx":true,"RLCRetx":false,"Proactive":true,"Unused":false}}`,
	`{"type":"dci","data":{"At":-9223372036854775808}}`,
	`{"type":"pkt","data":{"Seq":18446744073709551615,"Size":-1}}`,
	`{"type":"stats","data":{"At":123,"InboundFPS":29.97,"TrendlineSlope":-1.5e-9}}`,
	`{"type":"rrc","data":{"At":5,"Connected":true,"Cause":"inactivity timer"}}`,
	`{"type":"gnb","data":{"Note":"plain ascii"}}`,
	`{"type":"dci","data":{}}`,
}

// Lines the fast path must bail on: valid JSON in a layout appendRow
// does not write, or stdlib semantics the scanner does not reimplement.
// The production path still decodes or rejects them via the fallback,
// so bailing just means "slow".
var fastBailLines = []string{
	` { "type" : "rrc" , "data" : { "At" : 7 } } `,                                   // spaced
	`{"type":"stats","data":{"InboundFPS":29.97,"TrendlineSlope":-1.5e-9,"At":123}}`, // reordered members
	`{"type":"rrc","data":{"At":1,"At":2}}`,                                          // repeated member
	`{"type":"rrc","data":{"at":5}}`,                                                 // case-folded key
	`{"type":"rrc","data":{"At":null}}`,                                              // null literal
	`{"type":"rrc","data":{"At":1e2}}`,                                               // exponent for int field
	`{"type":"rrc","data":{"At":01}}`,                                                // leading zero
	`{"type":"rrc","data":{"Cause":"a\u0041b"}}`,                                     // escaped string
	`{"type":"rrc","data":{"Bogus":1}}`,                                              // unknown field
	`{"type":"mystery","data":{}}`,                                                   // unknown type
	`{"data":{"At":1},"type":"rrc"}`,                                                 // reordered envelope
	`{"type":"rrc","data":{"At":1}}trailing`,                                         // trailing garbage
	`{"type":"rrc","data":[1,2]}`,                                                    // wrong data shape
	`{"type":"rrc","data":{"At":9223372036854775808}}`,                               // int64 overflow
	`{"type":"pkt","data":{"Seq":-1}}`,                                               // negative uint
	`{"type":"stats","data":{"InboundFPS":1.797e+309}}`,                              // float overflow
}

// writeJSONL is what WriteJSONL writes for set.
func writeJSONL(t testing.TB, set *trace.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scenarioSets runs each catalog scenario for d, the i-th with seed
// seed+i, and returns the traces with their names, in catalog order.
func scenarioSets(t testing.TB, seed uint64, d sim.Time) (names []string, sets []*trace.Set) {
	t.Helper()
	for i, name := range scenario.Names() {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sc.Build(seed + uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		names, sets = append(names, name), append(sets, sess.Run(d))
	}
	return names, sets
}

// TestJSONLRecordPathAllocs bounds the record path on JSONL: ReadAuto
// decodes a block of lines into columns and hands out its records from
// a recycled generation, so a read allocates per block and for the
// set's growth, not per line. A Record made per line is 1.0 per record;
// the ceiling is a tenth of that.
func TestJSONLRecordPathAllocs(t *testing.T) {
	names, sets := scenarioSets(t, 3, 5*sim.Second)
	stream := writeJSONL(t, sets[0])
	records := bytes.Count(stream, []byte("\n"))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := trace.ReadAuto(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
	})
	if perRec := allocs / float64(records); perRec > 0.1 {
		t.Fatalf("ReadAuto of %s's JSONL allocates %.3f per record (%.0f for %d), ceiling 0.1", names[0], perRec, allocs, records)
	}
}

// encoderLines returns every line WriteJSONL writes for the golden set
// and for a short trace of each registered scenario.
func encoderLines(t *testing.T) []string {
	t.Helper()
	_, sets := scenarioSets(t, 7, sim.Second)
	var lines []string
	for _, set := range append(sets, trace.GoldenSet()) {
		lines = append(lines, strings.Split(strings.TrimSuffix(string(writeJSONL(t, set)), "\n"), "\n")...)
	}
	return lines
}

// TestFastDecodeSubsetAgreesWithOracle pins the fast decoder's subset:
// every line the encoder writes without a string escape, and each
// hand-picked accept line, is taken by the fast tier with the record
// encoding/json decodes; an encoder line with an escape, and each bail
// line, is left to encoding/json (whose decode of the bail lines
// TestJSONLReadBlockMatchesNext runs through both read paths).
func TestFastDecodeSubsetAgreesWithOracle(t *testing.T) {
	for _, line := range append(encoderLines(t), fastAcceptLines...) {
		fast, ok := trace.FastDecodeLine([]byte(line))
		if escaped := strings.Contains(line, `\`); ok == escaped {
			t.Fatalf("fast path took it %v, escaped %v: %s", ok, escaped, line)
		} else if escaped {
			continue
		}
		want, err := trace.OracleDecodeLine([]byte(line))
		if err != nil {
			t.Fatalf("oracle rejected %s: %v", line, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decode mismatch on %s:\nfast:   %+v\noracle: %+v", line, fast, want)
		}
	}
	for _, line := range fastBailLines {
		if rec, ok := trace.FastDecodeLine([]byte(line)); ok {
			t.Fatalf("fast path accepted %s as %+v; it must defer to the oracle", line, rec)
		}
	}
}

// TestWriteJSONLStaysFast: WriteJSONL writes the fast tier's own
// layout, so every line of every registered scenario's trace is read by
// the fast tier through ReadBlock (no slow line), and each line decodes
// to the same row whether at least 24 bytes of the scanner's token
// follow it — the inlined key compare's window — or it ends the token
// with no newline, where the keys in its last 24 bytes take the
// byte-by-byte compare.
func TestWriteJSONLStaysFast(t *testing.T) {
	names, sets := scenarioSets(t, 11, sim.Second)
	for i, set := range sets {
		stream := writeJSONL(t, set)
		want, slow := readFast(t, stream)
		if slow != 0 {
			t.Fatalf("%s: %d of %d lines left the fast tier", names[i], slow, len(want))
		}
		lines := bytes.SplitAfter(stream, []byte("\n"))
		for k, line := range lines[:len(want)] {
			last := bytes.TrimSuffix(line, []byte("\n"))
			followed := append(append([]byte(nil), line...), lines[(k+1)%len(want)]...)
			for _, in := range [][]byte{last, followed} {
				got, slow := readFast(t, in)
				if slow != 0 || !reflect.DeepEqual(got[0], want[k]) {
					t.Fatalf("%s line %d read as %q: %d slow lines\ngot  %+v\nwant %+v", names[i], k+1, in, slow, got[0], want[k])
				}
			}
		}
	}
}

// readFast reads input through ReadBlock and returns its records and
// how many of its lines were left to encoding/json.
func readFast(t *testing.T, input []byte) ([]trace.Record, int) {
	t.Helper()
	sr := trace.NewStreamReader(bytes.NewReader(input))
	recs, _, err := drainBlocks(sr)
	if err != nil {
		t.Fatal(err)
	}
	return recs, sr.SlowLines()
}

// viaNext drains a JSONL stream record by record.
func viaNext(input []byte) (recs []trace.Record, err error) {
	sr := trace.NewStreamReader(bytes.NewReader(input))
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// viaBlocks drains the same stream block by block at the given Recycle
// depth, materialising each block's records before the next is read,
// and also returns the block sizes.
func viaBlocks(input []byte, depth int) (recs []trace.Record, sizes []int, err error) {
	sr := trace.NewStreamReader(bytes.NewReader(input))
	sr.Recycle(depth)
	return drainBlocks(sr)
}

// drainBlocks is viaBlocks on a reader of the caller's.
func drainBlocks(sr *trace.Reader) (recs []trace.Record, sizes []int, err error) {
	for {
		b, err := sr.ReadBlock()
		if err == io.EOF {
			return recs, sizes, nil
		}
		if err != nil {
			return recs, sizes, err
		}
		sizes = append(sizes, b.Len())
		if b.Header != nil {
			h := *b.Header
			recs = append(recs, trace.Record{Header: &h})
		} else {
			recs = append(recs, trace.BlockRecords(b)...)
		}
	}
}

// diffBlocksAndNext requires ReadBlock and Next to yield the same
// records and the same terminal error over input, and returns them with
// the block sizes.
func diffBlocksAndNext(t testing.TB, input []byte) ([]trace.Record, []int, error) {
	t.Helper()
	want, wantErr := viaNext(input)
	var sizes []int
	for _, depth := range []int{0, 1} {
		got, blocks, err := viaBlocks(input, depth)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("depth %d: error\nblocks %v\nnext   %v", depth, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("depth %d: %d records from blocks, %d from Next", depth, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("depth %d: record %d\nblocks %+v\nnext   %+v", depth, i, got[i], want[i])
			}
		}
		sizes = blocks
	}
	return want, sizes, wantErr
}

// canonicalLines is a header line and n data lines of every type in the
// encoder's own form.
func canonicalLines(n int) []string {
	lines := []string{`{"type":"header","data":{"cell_name":"c","duration_us":0,"has_gnb_log":true}}`}
	for i := 0; len(lines) <= n; i++ {
		lines = append(lines,
			fmt.Sprintf(`{"type":"dci","data":{"At":%d,"Dir":1,"RNTI":70,"OwnPRB":%d,"OtherPRB":3,"MCS":4,"TBSBits":5,"UsedBits":6,"HARQRetx":true,"RLCRetx":false,"Proactive":true,"Unused":false}}`, i, i%50),
			fmt.Sprintf(`{"type":"pkt","data":{"Seq":%d,"Kind":1,"Dir":0,"Size":1200,"SentAt":%d,"Arrived":%d}}`, i, i, i+9000),
			fmt.Sprintf(`{"type":"gnb","data":{"At":%d,"Kind":0,"Dir":1,"BufferBytes":%d,"RNTI":0,"Note":"n%d"}}`, i, 100*i, i%3),
			fmt.Sprintf(`{"type":"stats","data":{"At":%d,"Local":true,"InboundFPS":29.97,"TargetBitrateBps":2.5e+06,"GCCNetState":1}}`, i),
			fmt.Sprintf(`{"type":"rrc","data":{"At":%d,"Connected":%t,"RNTI":70,"Cause":"inactivity"}}`, i, i%2 == 0))
	}
	return lines[:n+1]
}

func join(lines []string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }

// plantLine returns lines with line inserted as data line at (the
// header is line 0).
func plantLine(lines []string, at int, line string) []string {
	out := append([]string(nil), lines[:at+1]...)
	return append(append(out, line), lines[at+1:]...)
}

// TestJSONLReadBlockMatchesNext pins the JSONL block path to the record
// path: whatever the stream — every registered scenario's trace, each
// hand-picked fast-path and fallback line, a malformed line anywhere in
// a block, a second header — records materialised from ReadBlock equal
// Next's one for one, and the stream ends in the same error.
func TestJSONLReadBlockMatchesNext(t *testing.T) {
	names, sets := scenarioSets(t, 31, 3*sim.Second)
	for i, set := range sets {
		recs, sizes, err := diffBlocksAndNext(t, writeJSONL(t, set))
		if err != nil || len(sizes) < 4 {
			t.Fatalf("%s: %d records in %d blocks, err %v", names[i], len(recs), len(sizes), err)
		}
	}

	const block = 256
	lines := canonicalLines(3 * block)
	for _, line := range append(append([]string(nil), fastAcceptLines...), fastBailLines...) {
		diffBlocksAndNext(t, join(plantLine(lines, block+7, line)))
	}

	t.Run("malformed", func(t *testing.T) {
		for _, at := range []int{block, block + block/2, 2*block - 1} {
			recs, sizes, err := diffBlocksAndNext(t, join(plantLine(lines, at, `{"type":"dci","data":{"At":`)))
			wantErr := fmt.Sprintf("trace: line %d: unexpected end of JSON input", at+2)
			if err == nil || err.Error() != wantErr || len(recs) != at+1 {
				t.Fatalf("planted at %d: %d records, err %v; want %d records, %s", at, len(recs), err, at+1, wantErr)
			}
			// The block ends before the bad line; an empty one is not returned.
			want := []int{1, block}
			if at > block {
				want = append(want, at-block)
			}
			if !reflect.DeepEqual(sizes, want) {
				t.Fatalf("planted at %d: block sizes %v, want %v", at, sizes, want)
			}
		}
	})

	t.Run("header mid-stream", func(t *testing.T) {
		_, sizes, err := diffBlocksAndNext(t, join(plantLine(lines, block+9, lines[0])))
		if want := []int{1, block, 9, 1, block, block - 9}; err != nil || !reflect.DeepEqual(sizes, want) {
			t.Fatalf("block sizes %v, err %v; want %v", sizes, err, want)
		}
	})

	t.Run("recycle", func(t *testing.T) {
		sr := trace.NewStreamReader(bytes.NewReader(join(canonicalLines(6 * block))))
		sr.Recycle(1)
		var blocks []*trace.Block
		var snaps [][]trace.Record
		for {
			b, err := sr.ReadBlock()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.Header != nil {
				continue
			}
			blocks, snaps = append(blocks, b), append(snaps, trace.BlockRecords(b))
			k := len(blocks) - 1
			if k >= 1 && !reflect.DeepEqual(trace.BlockRecords(blocks[k-1]), snaps[k-1]) {
				t.Fatalf("block %d overwritten by the next ReadBlock", k-1)
			}
			if k >= 2 && blocks[k-2] != b {
				t.Fatalf("block %d did not reuse block %d's storage", k, k-2)
			}
		}
		if len(blocks) != 6 {
			t.Fatalf("%d blocks, want 6", len(blocks))
		}
	})
}

// TestStreamReaderLineCap pins the longest line the reader takes: 1 MiB
// less the newline, through Next and ReadBlock alike.
func TestStreamReaderLineCap(t *testing.T) {
	line := func(n int) string {
		const head, tail = `{"type":"gnb","data":{"Note":"`, `"}}`
		return head + strings.Repeat("a", n-len(head)-len(tail)) + tail
	}
	input := join([]string{canonicalLines(0)[0], line(1<<20 - 1), line(1 << 20)})
	recs, sizes, err := diffBlocksAndNext(t, input)
	const wantErr = "trace: line 3: bufio.Scanner: token too long"
	if err == nil || err.Error() != wantErr || len(recs) != 2 || len(recs[1].GNB.Note) < 1<<20-64 {
		t.Fatalf("%d records, err %v; want 2 records, %s", len(recs), err, wantErr)
	}
	if want := []int{1, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("block sizes %v, want %v", sizes, want)
	}
}

// FuzzJSONLBlock feeds arbitrary bytes to the JSONL reader twice, as
// blocks and as records: identical records and error, whatever the
// stream.
func FuzzJSONLBlock(f *testing.F) {
	for _, seed := range trace.JSONLFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add(string(join(plantLine(canonicalLines(300), 280, `{"type":"rrc","data":{"Cause":"aAb"}}`))))
	f.Fuzz(func(t *testing.T, input string) {
		diffBlocksAndNext(t, []byte(input))
	})
}
