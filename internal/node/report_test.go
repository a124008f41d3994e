package node

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

// stdJSON is the oracle: what ingest.WriteJSON puts on the wire for v,
// or nil when json.Encoder refuses it.
func stdJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// stdRow is the oracle for a /sessions row: the element of a
// []SessionInfo as ingest.WriteJSON indents it, brace to brace.
func stdRow(info SessionInfo) []byte {
	b, err := json.MarshalIndent(info, "  ", "  ")
	if err != nil {
		return nil
	}
	return b
}

// awkward are strings encoding/json does something to: HTML escapes,
// the short and the \u00XX control escapes, invalid UTF-8, the two line
// separators JavaScript chokes on, and plain multi-byte text.
var awkward = []string{
	"", "plain", `a --> b`, `<&>`, `"quoted\"`, "\x00\x01\b\f\n\r\t\x1f\x7f",
	"bad\xff\xfeutf8", "cut\xe2\x82", "sep\u2028and\u2029", "héllo wörld ✓ 🎥", "\ufffd",
}

// edgeFloats straddle the bounds where encoding/json switches to
// e-notation (below 1e-6, from 1e21 on).
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, -1e-6, -9.99e-7, 1e-7, 5e-324,
	1e21, 9.999999999999999e20, -1e21, 1e20, 0.1, 2.5, -123456789.125, math.MaxFloat64,
}

// realPayload is the report of a real analyzed call, chains and all.
func realPayload(t testing.TB) ReportPayload {
	t.Helper()
	a := testAnalyzer(t)
	sa := stream.New(a, stream.Config{DropWindows: true})
	sr := trace.NewStreamReader(bytes.NewReader(sessionJSONL(t, 3, 20*sim.Second)))
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = sa.Push(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sess := &session{id: "real", sa: sa, classes: graphClasses(a.Graph()), proto: ingest.Session{State: ingest.StateDone}}
	rep, err := sa.Close()
	if err != nil {
		t.Fatal(err)
	}
	p := sess.payloadLocked(rep)
	if len(p.TopChains) == 0 {
		t.Fatal("the real call fired no chain")
	}
	return p
}

// reportFixtures cover every awkward string in every string position,
// every edge float in both float positions, omitempty members set and
// unset, and nil against empty for both maps and the chain list.
func reportFixtures(t *testing.T) []ReportPayload {
	out := []ReportPayload{realPayload(t), {}}
	for i, s := range awkward {
		f := edgeFloats[i%len(edgeFloats)]
		out = append(out, ReportPayload{
			SessionInfo: SessionInfo{
				Session: s, Cell: s, Scenario: s, State: ingest.State(s), Error: s,
				Records: i, Windows: -i, LateDropped: i, WatermarkUs: int64(-i), DurationUs: math.MaxInt64,
				ChainEvents: i, DegradationPerMin: f,
			},
			Causes:       map[string]NodeStat{s: {Events: i, PerMinute: f}, s + "z": {}, "a" + s: {Events: -1, PerMinute: -f}},
			Consequences: map[string]NodeStat{},
			TopChains:    []ChainStat{{Chain: s, Events: i}, {}},
		})
	}
	for _, f := range edgeFloats {
		out = append(out, ReportPayload{
			SessionInfo:  SessionInfo{Session: "f", DegradationPerMin: f},
			Consequences: map[string]NodeStat{"x": {PerMinute: f}},
			TopChains:    []ChainStat{},
		})
	}
	return out
}

// TestReportEncoderMatchesEncodingJSON pins the report and /sessions
// encoders to encoding/json's bytes.
func TestReportEncoderMatchesEncodingJSON(t *testing.T) {
	for i, p := range reportFixtures(t) {
		if got, want := appendReport(nil, &p), stdJSON(p); !bytes.Equal(got, want) {
			t.Errorf("report %d:\n got %s\nwant %s", i, got, want)
		}
		if got, want := appendRow(nil, &p.SessionInfo), stdRow(p.SessionInfo); !bytes.Equal(got, want) {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// FuzzReportEncoder holds the report and /sessions encoders to
// encoding/json over random payloads. shape picks nil or empty for each
// map and the chain list; the rest fill every member. NaN and the
// infinities, which encoding/json refuses, are skipped.
func FuzzReportEncoder(f *testing.F) {
	for i, s := range awkward {
		f.Add(s, s, "x"+s, s, edgeFloats[i%len(edgeFloats)], int64(i), uint8(i))
	}
	for i, v := range edgeFloats {
		f.Add("s0001", "tdd", "", "a --> b", v, int64(-i), uint8(0x3f-i))
	}
	f.Fuzz(func(t *testing.T, session, cell, scenario, chain string, v float64, n int64, shape uint8) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		info := SessionInfo{
			Session: session, Cell: cell, Scenario: scenario, State: ingest.State(chain), Error: scenario + chain,
			Records: int(n), Windows: int(n >> 3), LateDropped: int(n % 3), WatermarkUs: n, DurationUs: -n,
			ChainEvents: int(n), DegradationPerMin: v,
		}
		stats := func(nilBit, emptyBit uint8) map[string]NodeStat {
			switch {
			case shape&nilBit != 0:
				return nil
			case shape&emptyBit != 0:
				return map[string]NodeStat{}
			}
			return map[string]NodeStat{chain: {Events: int(n), PerMinute: v}, session: {PerMinute: -v}, cell + chain: {Events: -int(n)}}
		}
		p := ReportPayload{SessionInfo: info, Causes: stats(1, 2), Consequences: stats(4, 8)}
		switch {
		case shape&16 != 0:
		case shape&32 != 0:
			p.TopChains = []ChainStat{}
		default:
			p.TopChains = []ChainStat{{Chain: chain, Events: int(n)}, {Chain: session}}
		}
		if got, want := appendReport(nil, &p), stdJSON(p); !bytes.Equal(got, want) {
			t.Fatalf("report:\n got %s\nwant %s", got, want)
		}
		if got, want := appendRow(nil, &info), stdRow(info); !bytes.Equal(got, want) {
			t.Fatalf("row:\n got %s\nwant %s", got, want)
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing, so a benchmark
// of an answer path times the rendering, not a recorder.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkReportAnswer answers a real call's report both ways: the
// append encoder through ingest.WriteAppended, and the reflecting,
// re-indenting ingest.WriteJSON it replaced.
func BenchmarkReportAnswer(b *testing.B) {
	p := realPayload(b)
	w, r := discardWriter{h: http.Header{}}, httptest.NewRequest(http.MethodGet, "/report/s", nil)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ingest.WriteAppended(w, r, func(dst []byte) []byte { return appendReport(dst, &p) })
		}
	})
	b.Run("WriteJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ingest.WriteJSON(w, http.StatusOK, p)
		}
	})
}
