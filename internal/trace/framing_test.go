package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// scanLinesReader is the reference FuzzJSONLFraming holds a JSONL Reader
// to: bufio.Scanner with bufio.ScanLines over the same buffer sizes, and
// each line decoded on its own by the fast tier or else encoding/json.
// ScanLines is asked only once the data holds a newline or ends: before,
// it would ask for more, and asking it after every short read of a
// megabyte line would search that line once per read.
func scanLinesReader(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, jsonlScanBuffer), maxJSONLLine)
	searched := 0 // data[:searched] holds no newline
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if !atEOF && bytes.IndexByte(data[searched:], '\n') < 0 {
			searched = len(data)
			return 0, nil, nil
		}
		searched = 0
		return bufio.ScanLines(data, atEOF)
	})
	var recs []Record
	for sc.Scan() {
		rec, ok := fastDecodeLine(sc.Bytes())
		if !ok {
			var b Block
			var d jsonlDecoder
			kind, err := slowDecode(sc.Bytes(), &b, &d)
			if err != nil {
				return recs, fmt.Errorf("trace: line %d: %w", len(recs)+1, err)
			}
			if rec = (Record{Header: d.hdr}); kind != lineHeader {
				rec = BlockRecords(&b)[len(b.Tags)-1]
			}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("trace: line %d: %w", len(recs)+1, err)
	}
	return recs, nil
}

// drainJSONL reads a JSONL Reader to its end, by Next or by ReadBlock,
// and returns the records and the error that ended the read (nil for a
// clean end).
func drainJSONL(r io.Reader, blocks bool) ([]Record, error) {
	sr := NewStreamReader(r)
	var recs []Record
	for {
		var err error
		if blocks {
			var b *Block
			if b, err = sr.ReadBlock(); err == nil && b.Header != nil {
				recs = append(recs, Record{Header: b.Header})
			} else if err == nil {
				recs = append(recs, BlockRecords(b)...)
			}
		} else {
			var rec Record
			if rec, err = sr.Next(); err == nil {
				recs = append(recs, rec)
			}
		}
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
	}
}

// chunkReader delivers data in reads of the sizes given (each size byte
// plus one, cycling), or whole when there are none.
type chunkReader struct {
	data, sizes []byte
	i           int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.sizes) > 0 {
		n = min(n, int(r.sizes[r.i%len(r.sizes)])+1)
		r.i++
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

var errTorn = errors.New("connection torn")

// framingReader is the reader a framing case runs on, by shape: read
// sizes from sizes, then a last read that also returns EOF (in reads of
// at most 1 KiB), a read that fails after cut bytes, or a second read
// that times out.
func framingReader(input, sizes []byte, shape uint8, cut int) io.Reader {
	switch shape % 4 {
	case 1:
		return iotest.DataErrReader(&chunkReader{data: input, sizes: sizes})
	case 2:
		cut %= len(input) + 1
		return io.MultiReader(&chunkReader{data: input[:cut], sizes: sizes}, iotest.ErrReader(errTorn))
	case 3:
		return iotest.TimeoutReader(&chunkReader{data: input, sizes: sizes})
	}
	return &chunkReader{data: input, sizes: sizes}
}

// checkFraming requires a JSONL Reader, by Next and by ReadBlock, to read
// the records, error and line number the reference reads.
func checkFraming(t *testing.T, input, sizes []byte, shape uint8, cut int) {
	t.Helper()
	want, wantErr := scanLinesReader(framingReader(input, sizes, shape, cut))
	for _, blocks := range []bool{false, true} {
		got, err := drainJSONL(framingReader(input, sizes, shape, cut), blocks)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("shape %d, blocks %v: error\ngot  %v\nwant %v", shape, blocks, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("shape %d, blocks %v: %d records, want %d", shape, blocks, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("shape %d, blocks %v: record %d\ngot  %+v\nwant %+v", shape, blocks, i, got[i], want[i])
			}
		}
	}
}

// framingLines is a header and a line of each data type, as the encoder
// writes them.
var framingLines = []string{
	`{"type":"header","data":{"cell_name":"c","duration_us":5,"has_gnb_log":true}}`,
	`{"type":"dci","data":{"At":1,"Dir":1,"RNTI":70,"OwnPRB":2,"OtherPRB":3,"MCS":4,"TBSBits":5,"UsedBits":6,"HARQRetx":true,"RLCRetx":false,"Proactive":true,"Unused":false}}`,
	`{"type":"gnb","data":{"At":2,"Kind":0,"Dir":1,"BufferBytes":300,"RNTI":0,"Note":"n"}}`,
	`{"type":"pkt","data":{"Seq":7,"Kind":1,"Dir":0,"Size":1200,"SentAt":3,"Arrived":9003}}`,
	`{"type":"stats","data":{"At":4,"Local":true,"InboundFPS":29.97,"TargetBitrateBps":2.5e+06}}`,
	`{"type":"rrc","data":{"At":5,"Connected":true,"RNTI":70,"Cause":"inactivity"}}`,
}

// gnbLine is a gNB line of exactly n bytes.
func gnbLine(n int) string {
	const head, tail = `{"type":"gnb","data":{"Note":"`, `"}}`
	return head + strings.Repeat("a", n-len(head)-len(tail)) + tail
}

// TestJSONLFraming runs the framing corners through checkFraming on
// every reader shape: CRLF line ends, a last line without a newline
// (or with a lone CR), blank lines, a slow line between fast ones, and
// lines of maxJSONLLine−1 and maxJSONLLine bytes, the longest the
// reader takes and the shortest it refuses.
func TestJSONLFraming(t *testing.T) {
	lines := strings.Join(framingLines, "\n")
	cases := map[string]string{
		"lf":               lines + "\n",
		"crlf":             strings.Join(framingLines, "\r\n") + "\r\n",
		"no final newline": lines,
		"final lone cr":    lines + "\r",
		"cr cr lf":         strings.Join(framingLines, "\r\r\n") + "\r\r\n",
		"blank line":       framingLines[0] + "\n\n" + lines + "\n",
		"blank crlf line":  framingLines[0] + "\r\n\r\n" + lines,
		"trailing blank":   lines + "\n\n",
		"slow line":        framingLines[0] + "\n" + ` {"type":"rrc","data":{"At":6}} ` + "\n" + lines + "\n",
		"max line":         framingLines[0] + "\n" + gnbLine(maxJSONLLine-1) + "\n" + lines + "\n",
		"max line at end":  framingLines[0] + "\n" + gnbLine(maxJSONLLine-1),
		"too long":         lines + "\n" + gnbLine(maxJSONLLine) + "\n" + lines + "\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			for shape := uint8(0); shape < 4; shape++ {
				for _, sizes := range [][]byte{nil, {0}, {6, 200, 31}} {
					for _, cut := range []int{0, len(input) / 3, len(framingLines[0]), len(framingLines[0]) + 1, len(input) - 1} {
						if shape != 2 && cut != 0 {
							continue // only shape 2 reads the cut
						}
						checkFraming(t, []byte(input), sizes, shape, cut)
					}
				}
			}
		})
	}
}

// FuzzJSONLFraming holds the JSONL decoder's whole-line tokens to
// bufio.ScanLines' framing: arbitrary bytes, delivered in arbitrary read
// sizes by readers that may fail mid-stream, must read as the same
// records ending in the same error at the same line number.
func FuzzJSONLFraming(f *testing.F) {
	for _, seed := range jsonlFuzzSeeds(f) {
		f.Add([]byte(seed), []byte{3, 40}, uint8(0), uint16(0))
	}
	lines := strings.Join(framingLines, "\n")
	f.Add([]byte(strings.Join(framingLines, "\r\n")), []byte{}, uint8(1), uint16(0))
	f.Add([]byte(lines+"\n\n"+lines+"\r"), []byte{17}, uint8(2), uint16(200))
	f.Add([]byte(lines+"\n"), []byte{0, 5}, uint8(3), uint16(0))
	f.Fuzz(func(t *testing.T, input, sizes []byte, shape uint8, cut uint16) {
		checkFraming(t, input, sizes, shape, int(cut))
	})
}

// TestFastTierReadsEveryMember fills every field of each record type
// with a value of its own, none zero, and requires the line the encoder
// writes for it to take the fast tier and decode to the same value —
// also with each bool field false in turn, so two bools read from each
// other's key show too. Signed members are plain digits once (the
// inlined digit read) and negative once (intAt). Each line is read both
// ending the token, where its last keys take keyAt, and followed by
// windowLine, where every key takes after's word compare. A struct field
// the member walk does not read, or reads from another member's key,
// fails it.
func TestFastTierReadsEveryMember(t *testing.T) {
	rows := []any{Header{}, DCIRecord{}, GNBLogRecord{}, PacketRecord{}, WebRTCStatsRecord{}, RRCRecord{}}
	for _, row := range rows {
		for _, sign := range []int64{1, -1} {
			v := reflect.New(reflect.TypeOf(row)).Elem()
			for i := 0; i < v.NumField(); i++ {
				switch f := v.Field(i); f.Kind() {
				case reflect.Int, reflect.Int64:
					f.SetInt(sign * int64(1000+i))
				case reflect.Uint32, reflect.Uint64:
					f.SetUint(uint64(2000 + i))
				case reflect.Float64:
					f.SetFloat(float64(i) + 0.25)
				case reflect.Bool:
					f.SetBool(true)
				case reflect.String:
					f.SetString(fmt.Sprintf("s%d", i))
				default:
					t.Fatalf("%s.%s: no value for kind %s", v.Type().Name(), v.Type().Field(i).Name, f.Kind())
				}
			}
			variants := []reflect.Value{v}
			for i := 0; i < v.NumField(); i++ {
				if v.Field(i).Kind() == reflect.Bool {
					w := reflect.New(v.Type()).Elem()
					w.Set(v)
					w.Field(i).SetBool(false)
					variants = append(variants, w)
				}
			}
			for _, w := range variants {
				checkFastMember(t, w)
			}
		}
	}
}

// checkFastMember requires w's encoded line to decode to w on the fast
// tier, through Next and ReadBlock, ending the token and followed by
// windowLine.
func checkFastMember(t *testing.T, w reflect.Value) {
	t.Helper()
	var rec Record
	reflect.ValueOf(&rec).Elem().FieldByName(map[string]string{
		"Header": "Header", "DCIRecord": "DCI", "GNBLogRecord": "GNB",
		"PacketRecord": "Packet", "WebRTCStatsRecord": "Stats", "RRCRecord": "RRC",
	}[w.Type().Name()]).Set(w.Addr())
	line, err := appendLine(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range []string{"", windowLine + "\n"} {
		for _, blocks := range []bool{false, true} {
			sr := NewStreamReader(strings.NewReader(string(line) + "\n" + next))
			var got Record
			if blocks {
				var b *Block
				if b, err = sr.ReadBlock(); err == nil && b.Header != nil {
					got = Record{Header: b.Header}
				} else if err == nil {
					got = BlockRecords(b)[0]
				}
			} else {
				got, err = sr.Next()
			}
			if err != nil || sr.SlowLines() != 0 || !reflect.DeepEqual(got, rec) {
				t.Fatalf("%s (blocks %v, windowed %v): %d slow lines, err %v\ngot  %+v\nwant %+v",
					line, blocks, next != "", sr.SlowLines(), err, recordPayload(got), recordPayload(rec))
			}
		}
	}
}

// sizedReader reads at most n bytes at a time.
type sizedReader struct {
	r io.Reader
	n int
}

func (r sizedReader) Read(p []byte) (int, error) { return r.r.Read(p[:min(len(p), r.n)]) }

// TestSplitSearchesEachByteOnce: the scanner hands the split the whole
// partial line after every read, and the split searches only what it has
// not searched before, so a 1 MiB line costs about its length in bytes
// examined however short the reads.
func TestSplitSearchesEachByteOnce(t *testing.T) {
	input := []byte(gnbLine(maxJSONLLine-1) + "\n")
	// Longest reads first: a split that searches the whole partial line
	// again after every read fails at 1448-byte reads in a fraction of a
	// second, where at 1-byte reads it would take minutes.
	for _, n := range []int{len(input), 1448, 64, 1} {
		sr := NewStreamReader(sizedReader{bytes.NewReader(input), n})
		rec, err := sr.Next()
		if _, end := sr.Next(); err != nil || rec.GNB == nil || end != io.EOF {
			t.Fatalf("%d-byte reads: record %+v, errors %v then %v", n, rec, err, end)
		}
		if examined := sr.dec.(*jsonlDecoder).lines.examined; examined > 2*len(input) {
			t.Fatalf("%d-byte reads: the split examined %d bytes of a %d-byte input", n, examined, len(input))
		}
	}
}
