package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/sim"
)

// drainStream reads the whole stream, returning the records and the
// terminal error (nil for a clean io.EOF).
func drainStream(t *testing.T, input string) ([]Record, error) {
	t.Helper()
	sr := NewStreamReader(strings.NewReader(input))
	var recs []Record
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

func TestStreamReaderRoundTrip(t *testing.T) {
	set := sampleSet()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(bytes.NewReader(buf.Bytes()))
	var n int
	var last sim.Time
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Header != nil {
			if n != 0 {
				t.Fatal("header not first")
			}
			if rec.Header.CellName != "testcell" || rec.Header.Duration != sim.Second || !rec.Header.HasGNBLog {
				t.Fatalf("header = %+v", *rec.Header)
			}
		} else {
			at, ok := rec.Time()
			if !ok {
				t.Fatalf("record %d has no timestamp", n)
			}
			// WriteJSONL must emit records merged in time order so the
			// file is streamable with O(window) buffering.
			if at < last {
				t.Fatalf("record %d out of order: %v after %v", n, at, last)
			}
			last = at
		}
		n++
	}
	want := 1 + len(set.DCI) + len(set.GNBLogs) + len(set.Packets) + len(set.Stats) + len(set.RRC)
	if n != want {
		t.Fatalf("streamed %d records, want %d", n, want)
	}
	if _, ok := sr.Header(); !ok {
		t.Fatal("header not retained")
	}
}

// TestMalformedJSONL drives both the batch and streaming readers over
// malformed inputs and asserts both return clean errors — no panics —
// and agree on whether the input is acceptable.
func TestMalformedJSONL(t *testing.T) {
	header := `{"type":"header","data":{"cell_name":"c","duration_us":1000000,"has_gnb_log":true}}`
	cases := []struct {
		name  string
		input string
		ok    bool
	}{
		{"empty file", "", false},
		{"missing header", `{"type":"dci","data":{"At":1}}` + "\n", false},
		{"late header", `{"type":"dci","data":{"At":1}}` + "\n" + header + "\n", false},
		{"header only", header + "\n", true},
		{"truncated line", header + "\n" + `{"type":"dci","da`, false},
		{"truncated data object", header + "\n" + `{"type":"dci","data":{"At":` + "\n", false},
		{"unknown record type", header + "\n" + `{"type":"mystery","data":{}}` + "\n", false},
		{"empty line", header + "\n\n", false},
		{"not json", "not json at all\n", false},
		{"wrong data shape", header + "\n" + `{"type":"dci","data":[1,2,3]}` + "\n", false},
		// internal/core counts MCS values, so it relies on this one.
		{"fractional MCS", header + "\n" + `{"type":"dci","data":{"At":5,"OwnPRB":3,"MCS":12.5}}` + "\n", false},
		{"header with bad duration", `{"type":"header","data":{"duration_us":"soon"}}` + "\n", false},
		{"valid record", header + "\n" + `{"type":"rrc","data":{"At":5,"Connected":true}}` + "\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, batchErr := readSet(NewStreamReader(strings.NewReader(tc.input)))
			recs, streamErr := drainStream(t, tc.input)
			// The batch read requires the header to come first (it fails
			// fast otherwise), so the streaming-side acceptability
			// check is header-first too.
			headerFirst := len(recs) > 0 && recs[0].Header != nil
			streamOK := streamErr == nil && headerFirst
			if (batchErr == nil) != tc.ok {
				t.Fatalf("batch: err=%v, want ok=%v", batchErr, tc.ok)
			}
			if streamOK != tc.ok {
				t.Fatalf("stream: err=%v headerFirst=%v, want ok=%v", streamErr, headerFirst, tc.ok)
			}
		})
	}
}

// TestStreamReaderErrorIsSticky pins that a decode error is terminal:
// later Next calls repeat it instead of resynchronizing mid-stream.
func TestStreamReaderErrorIsSticky(t *testing.T) {
	sr := NewStreamReader(strings.NewReader("garbage\n" + `{"type":"rrc","data":{}}` + "\n"))
	_, err1 := sr.Next()
	if err1 == nil {
		t.Fatal("garbage accepted")
	}
	_, err2 := sr.Next()
	if err2 != err1 {
		t.Fatalf("error not sticky: %v then %v", err1, err2)
	}
}

func TestRecordTime(t *testing.T) {
	if _, ok := (Record{}).Time(); ok {
		t.Fatal("empty record has a timestamp")
	}
	p := &PacketRecord{SentAt: 3 * sim.Millisecond, Arrived: 9 * sim.Millisecond}
	if at, ok := (Record{Packet: p}).Time(); !ok || at != 3*sim.Millisecond {
		t.Fatalf("packet time = %v, %v", at, ok)
	}
	if _, ok := (Record{Header: &Header{}}).Time(); ok {
		t.Fatal("header records carry no timestamp")
	}
}

// TestReadJSONLFailsFastOnMissingHeader pins the batch read's fail-fast
// contract on a JSONL stream: a stream whose first line is not a header is rejected with the
// missing-header error immediately, without draining (and potentially
// choking on) the rest of the stream. The garbage second line proves
// it: the old drain-everything behavior would have surfaced a line-2
// parse error instead.
func TestReadJSONLFailsFastOnMissingHeader(t *testing.T) {
	input := `{"type":"dci","data":{"At":1}}` + "\nthis line is not json and must never be parsed\n"
	_, err := readSet(NewStreamReader(strings.NewReader(input)))
	if err == nil {
		t.Fatal("headerless stream accepted")
	}
	if !strings.Contains(err.Error(), "missing header") {
		t.Fatalf("err = %v, want missing-header failure (not a line-2 parse error)", err)
	}
}

// jsonlFuzzSeeds is the seed corpus of the JSONL stream fuzz targets.
func jsonlFuzzSeeds(t testing.TB) []string {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleSet()); err != nil {
		t.Fatal(err)
	}
	return []string{
		buf.String(),
		"",
		`{"type":"header","data":{}}` + "\n",
		`{"type":"pkt","data":{"SentAt":-1}}`,
		strings.Repeat(`{"type":"rrc","data":{}}`+"\n", 3),
	}
}

// FuzzReadJSONL feeds arbitrary bytes to both readers: neither may
// panic, and they must agree on input acceptability (the batch read,
// readSet, drains a JSONL Reader, so a divergence means it broke).
func FuzzReadJSONL(f *testing.F) {
	for _, seed := range jsonlFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_, batchErr := readSet(NewStreamReader(strings.NewReader(input)))

		sr := NewStreamReader(strings.NewReader(input))
		var streamErr error
		headerFirst := false
		first := true
		for {
			rec, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				streamErr = err
				break
			}
			if first {
				first = false
				headerFirst = rec.Header != nil
			}
			if !headerFirst {
				// readSet stops at the first non-header first line;
				// stop mirroring it here so both readers consume the
				// same prefix.
				break
			}
		}
		if (batchErr == nil) != (streamErr == nil && headerFirst) {
			t.Fatalf("readers disagree: batch=%v stream=%v headerFirst=%v", batchErr, streamErr, headerFirst)
		}
	})
}
