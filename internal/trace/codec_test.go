package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// oracleLine is the reflection-based encoder the hand-rolled codec
// replaced: json.Marshal of the record inside the {"type","data"}
// envelope, exactly as the old WriteJSONL produced it (sans newline).
func oracleLine(t testing.TB, typ string, v any) ([]byte, error) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jsonLine{Type: typ, Data: data}); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// oracleDecodeLine is the stdlib double-unmarshal the fast decoder
// shortcuts; the JSONL decoder still uses it as the fallback.
func oracleDecodeLine(line []byte) (Record, error) {
	var l jsonLine
	if err := json.Unmarshal(line, &l); err != nil {
		return Record{}, err
	}
	switch l.Type {
	case "header":
		var h jsonHeader
		if err := json.Unmarshal(l.Data, &h); err != nil {
			return Record{}, err
		}
		hdr := Header(h)
		return Record{Header: &hdr}, nil
	case "dci":
		var v DCIRecord
		return Record{DCI: &v}, json.Unmarshal(l.Data, &v)
	case "gnb":
		var v GNBLogRecord
		return Record{GNB: &v}, json.Unmarshal(l.Data, &v)
	case "pkt":
		var v PacketRecord
		return Record{Packet: &v}, json.Unmarshal(l.Data, &v)
	case "stats":
		var v WebRTCStatsRecord
		return Record{Stats: &v}, json.Unmarshal(l.Data, &v)
	case "rrc":
		var v RRCRecord
		return Record{RRC: &v}, json.Unmarshal(l.Data, &v)
	default:
		return Record{}, errUnknownType(l.Type)
	}
}

// lineScratch is the block fastDecodeLine decodes into, kept from call
// to call and emptied every jsonlBlockLines, as a reader's are.
var lineScratch struct {
	sync.Mutex
	b Block
}

// fastDecodeLine is the fast tier alone, as a Record: what a JSONL
// Reader's Next returns for a line the tier accepts, the line ending the
// scanner's token.
func fastDecodeLine(line []byte) (Record, bool) { return fastDecodeIn(line, len(line)) }

// windowLine follows a line in fastDecodeWindowed's token.
const windowLine = `{"type":"dci","data":{"At":1,"Dir":0,"RNTI":70,"OwnPRB":2,"OtherPRB":3,"MCS":4,"TBSBits":5,"UsedBits":6,"HARQRetx":true,"RLCRetx":false,"Proactive":true,"Unused":false}}`

// fastDecodeWindowed is fastDecodeLine with another line after it in
// the token, as in a multi-line read: every key has the full window the
// inlined compare (after) loads, where a line ending the token reads
// its last keys byte by byte (keyAt).
func fastDecodeWindowed(line []byte) (Record, bool) {
	return fastDecodeIn(append(append(append([]byte(nil), line...), '\n'), windowLine...), len(line)+1)
}

// fastDecodeIn decodes the token's first line, which must end at next.
func fastDecodeIn(token []byte, next int) (Record, bool) {
	lineScratch.Lock()
	defer lineScratch.Unlock()
	b := &lineScratch.b
	if len(b.Tags) == jsonlBlockLines {
		b.reset()
	}
	var d jsonlDecoder
	p := lineParser{buf: token, ok: true}
	kind := p.decode(b, &d)
	switch {
	case !p.ok || p.pos != next:
		return Record{}, false
	case kind == lineHeader:
		return Record{Header: d.hdr}, true
	}
	recs := BlockRecords(b)
	return recs[len(recs)-1], true
}

type errUnknownType string

func (e errUnknownType) Error() string { return "unknown record type " + string(e) }

func recordTypeName(rec Record) string {
	switch {
	case rec.Header != nil:
		return "header"
	case rec.DCI != nil:
		return "dci"
	case rec.GNB != nil:
		return "gnb"
	case rec.Packet != nil:
		return "pkt"
	case rec.Stats != nil:
		return "stats"
	case rec.RRC != nil:
		return "rrc"
	}
	return ""
}

func recordPayload(rec Record) any {
	switch {
	case rec.Header != nil:
		return jsonHeader(*rec.Header)
	case rec.DCI != nil:
		return *rec.DCI
	case rec.GNB != nil:
		return *rec.GNB
	case rec.Packet != nil:
		return *rec.Packet
	case rec.Stats != nil:
		return *rec.Stats
	case rec.RRC != nil:
		return *rec.RRC
	}
	return nil
}

// checkEncodeMatchesOracle pins fast encode == oracle encode for one
// record, including error agreement (NaN/Inf).
func checkEncodeMatchesOracle(t *testing.T, rec Record) {
	t.Helper()
	fast, fastErr := appendLine(nil, rec)
	want, oracleErr := oracleLine(t, recordTypeName(rec), recordPayload(rec))
	if (fastErr == nil) != (oracleErr == nil) {
		t.Fatalf("error disagreement: fast=%v oracle=%v for %+v", fastErr, oracleErr, rec)
	}
	if fastErr != nil {
		return
	}
	if !bytes.Equal(fast, want) {
		t.Fatalf("encoding mismatch:\nfast:   %s\noracle: %s", fast, want)
	}
	// Round trip: when the fast decoder accepts the line it must agree
	// with the oracle decoder exactly. Lines with escapes bail to the
	// fallback by design, so the oracle is the reference either way —
	// comparing against the original record would be wrong for lossy
	// inputs (invalid UTF-8 is replaced with U+FFFD on encode).
	oracleRec, err := oracleDecodeLine(fast)
	if err != nil {
		t.Fatalf("oracle decoder rejected oracle-encoded line %s: %v", fast, err)
	}
	if back, ok := fastDecodeLine(fast); ok {
		if !reflect.DeepEqual(back, oracleRec) {
			t.Fatalf("round trip mismatch on %s:\nfast:   %+v\noracle: %+v", fast, back, oracleRec)
		}
	}
}

// TestCodecDifferentialQuick drives randomized records of every type
// through encoder and decoder against the encoding/json oracle.
func TestCodecDifferentialQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(v DCIRecord) bool {
		checkEncodeMatchesOracle(t, Record{DCI: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v GNBLogRecord) bool {
		checkEncodeMatchesOracle(t, Record{GNB: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v PacketRecord) bool {
		checkEncodeMatchesOracle(t, Record{Packet: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v WebRTCStatsRecord) bool {
		checkEncodeMatchesOracle(t, Record{Stats: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v RRCRecord) bool {
		checkEncodeMatchesOracle(t, Record{RRC: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(h Header) bool {
		checkEncodeMatchesOracle(t, Record{Header: &h})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCodecEdgeValues exercises the encoder corners quick rarely hits:
// float formats the stdlib special-cases, strings needing every escape
// class, and the NaN/Inf error path.
func TestCodecEdgeValues(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 1e20, 1e21, -1e21,
		123456.789, 3.141592653589793, 2.5e-9, 6.02e23, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	for _, f := range floats {
		checkEncodeMatchesOracle(t, Record{Stats: &WebRTCStatsRecord{InboundFPS: f, TrendlineSlope: -f}})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncodeMatchesOracle(t, Record{Stats: &WebRTCStatsRecord{AckedBitrateBps: bad}})
	}
	strs := []string{
		"", "plain", "with \"quotes\" and \\slashes\\",
		"html <tags> & ampersands", "newline\ntab\tcr\r", "nul\x00bell\x07", "backspace\bformfeed\f",
		"unicode ✓ ☂ 日本語", "line sep \u2028 and \u2029 end",
		"invalid \xff\xfe utf8", "trailing continuation \xc3",
	}
	for _, s := range strs {
		checkEncodeMatchesOracle(t, Record{GNB: &GNBLogRecord{Note: s}})
		checkEncodeMatchesOracle(t, Record{RRC: &RRCRecord{Cause: s}})
		checkEncodeMatchesOracle(t, Record{Header: &Header{CellName: s, Scenario: s}})
	}
	ints := []int{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, n := range ints {
		checkEncodeMatchesOracle(t, Record{DCI: &DCIRecord{At: sim.Time(n), OwnPRB: n}})
	}
	checkEncodeMatchesOracle(t, Record{Packet: &PacketRecord{Seq: math.MaxUint64, Kind: netem.MediaKind(-3)}})
}

// FuzzCodecDifferential feeds arbitrary line bytes to the fast decoder:
// whenever it accepts, the oracle must agree record-for-record, and
// re-encoding the record must match the oracle encoder byte-for-byte.
func FuzzCodecDifferential(f *testing.F) {
	set := sampleSet()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, set); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			f.Add(string(line))
		}
	}
	f.Add(`{"type":"stats","data":{"InboundFPS":1e-7}}`)
	f.Add(`{"type":"dci","data":{"At":-1,"Unused":true}}`)
	f.Add(`{"type":"rrc","data":{"Cause":"«utf8»"}}`)
	// The fast tier's edges: 18 digits are the integer parser's, 19 the
	// token scan's; a last key with fewer bytes left than its words load
	// (`,"Cause":` loads 16 bytes, 13 are left), behind a wrong separator,
	// or fewer than the key itself; a bool cut short; the first member missing; the header's
	// omitempty member present and absent; floats either side of the
	// exact bounds.
	f.Add(`{"type":"dci","data":{"At":-123456789012345678,"Dir":1,"RNTI":123456789012345678}}`)
	f.Add(`{"type":"pkt","data":{"Seq":1234567890123456789,"Kind":-1234567890123456789}}`)
	f.Add(`{"type":"rrc","data":{"At":5,"Connected":true,"RNTI":70,"Cause":""}}`)
	f.Add(`{"type":"rrc","data":{"At":5,"Connected":true,"RNTI":70;"Cause":""}}`)
	f.Add(`{"type":"rrc","data":{"At":5,"Connected":true,"RNTI":70,"Cau`)
	f.Add(`{"type":"rrc","data":{"At":5,"Connected":fals`)
	f.Add(`{"type":"dci","data":{"Dir":1,"RNTI":70,"OwnPRB":2}}`)
	f.Add(`{"type":"header","data":{"cell_name":"c","scenario":"s","duration_us":5,"has_gnb_log":true}}`)
	f.Add(`{"type":"header","data":{"cell_name":"c","duration_us":5,"has_gnb_log":false}}`)
	// A uint32 one past its range in an all-plain DCI line and in a gNB
	// line, each of which the member walk reads with every key inline
	// when a line follows it.
	f.Add(`{"type":"dci","data":{"At":1,"Dir":0,"RNTI":4294967296,"OwnPRB":2,"OtherPRB":3,"MCS":4,"TBSBits":5,"UsedBits":6,"HARQRetx":true,"RLCRetx":false,"Proactive":true,"Unused":false}}`)
	f.Add(`{"type":"gnb","data":{"At":1,"Kind":0,"Dir":0,"BufferBytes":5,"RNTI":4294967296,"Note":""}}`)
	f.Add(`{"type":"stats","data":{"At":1,"Local":false,"InboundFPS":999999999999999e22,"OutboundFPS":9007199254740993,"OutboundHeight":1,"InboundHeight":2,"VideoJBDelayMs":-0,"AudioJBDelayMs":1e23}}`)
	f.Fuzz(func(t *testing.T, line string) {
		rec, ok := fastDecodeLine([]byte(line))
		if wrec, wok := fastDecodeWindowed([]byte(line)); wok != ok || !reflect.DeepEqual(wrec, rec) {
			t.Fatalf("%q decodes differently ending the token (%v, %+v) and followed by a line (%v, %+v)", line, ok, rec, wok, wrec)
		}
		if !ok {
			return // slow-path material; the fallback owns it
		}
		want, err := oracleDecodeLine([]byte(line))
		if err != nil {
			t.Fatalf("fast path accepted %q but oracle errors: %v", line, err)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("decode mismatch on %q:\nfast:   %+v\noracle: %+v", line, rec, want)
		}
		checkEncodeMatchesOracle(t, rec)
	})
}

// TestExactFloatMatchesStrconv holds the float fast path to strconv bit
// for bit: significands of 1–17 digits scaled by 10^-25…10^25, written
// positionally and with an exponent, both signs, and the corners. The
// fast path must take exactly the tokens of at most 15 significant
// digits and a decimal exponent within ±22, and on each give
// strconv.ParseFloat's float64.
func TestExactFloatMatchesStrconv(t *testing.T) {
	check := func(tok string, exact bool) {
		t.Helper()
		want, err := strconv.ParseFloat(tok, 64)
		got, n, ok := scanNumber([]byte(tok))
		if err != nil || n != len(tok) {
			t.Fatalf("%s is not a test token: %v", tok, err)
		}
		if ok != exact {
			t.Fatalf("%s: fast path took it %v, want %v", tok, ok, exact)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: fast path %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for nd := 1; nd <= 17; nd++ {
		for trial := 0; trial < 4; trial++ {
			sig := []byte(strings.Repeat("9", nd))
			if trial > 0 {
				sig[0] = byte('1' + rng.Intn(9))
				for i := 1; i < nd; i++ {
					sig[i] = byte('0' + rng.Intn(10))
				}
			}
			s := string(sig)
			for k := -25; k <= 25; k++ { // the token's value is s × 10^k
				exact := nd <= 15 && k >= -22 && k <= 22
				var pos string // positional, its trailing zeros significant
				switch {
				case k >= 0:
					pos = s + strings.Repeat("0", k)
					exact = nd+k <= 15
				case nd+k > 0:
					pos = s[:nd+k] + "." + s[nd+k:]
				default:
					pos = "0." + strings.Repeat("0", -k-nd) + s
				}
				for _, sign := range []string{"", "-"} {
					check(sign+s+"e"+strconv.Itoa(k), nd <= 15 && k >= -22 && k <= 22)
					if nd > 1 {
						check(fmt.Sprintf("%s%s.%sE%+d", sign, s[:1], s[1:], k+nd-1), nd <= 15 && k >= -22 && k <= 22)
					}
					check(sign+pos, exact)
				}
			}
		}
	}
	for tok, exact := range map[string]bool{
		"-0": true, "0e0": true, "-0.000e-30": false, "1e22": true, "1e23": false,
		"9007199254740993": false, "90071992547409.9": true, "900719925474099.3": false, "0.0000000000000000000001": true,
	} {
		check(tok, exact)
	}
}

// FuzzFastNumber places arbitrary bytes as the value of an int, a uint64
// and a float member of a stats line, each in the fast tier's path:
// whatever the fast tier accepts, encoding/json must accept with the
// identical record, a float's sign of zero included.
func FuzzFastNumber(f *testing.F) {
	for _, v := range []string{
		"0", "-0", "7", "-1", "123456789012345678", "-123456789012345678", "1234567890123456789",
		"9223372036854775808", "18446744073709551615", "18446744073709551616", "01", "-", "1.",
		".5", "+1", "1e", "1e+400", "0e0", "1.5", "-2.5e-9", "1e22", "1e23", "9007199254740993",
		"29.97", "true", "null", "1,", "1}", "",
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		for _, line := range []string{
			`{"type":"stats","data":{"At":` + v + `,"Local":true}}`,
			`{"type":"stats","data":{"At":1,"Local":true,"InboundFPS":` + v + `,"OutboundFPS":2}}`,
			`{"type":"stats","data":{"FreezeTotalMs":1,"ConcealedSamples":` + v + `,"TotalSamples":2}}`,
		} {
			rec, ok := fastDecodeLine([]byte(line))
			if wrec, wok := fastDecodeWindowed([]byte(line)); wok != ok || !reflect.DeepEqual(wrec, rec) {
				t.Fatalf("%s decodes differently ending the token (%v) and followed by a line (%v)", line, ok, wok)
			}
			if !ok {
				continue
			}
			want, err := oracleDecodeLine([]byte(line))
			if err != nil {
				t.Fatalf("fast tier accepted %s, encoding/json rejects it: %v", line, err)
			}
			if !reflect.DeepEqual(rec, want) || math.Float64bits(rec.Stats.InboundFPS) != math.Float64bits(want.Stats.InboundFPS) {
				t.Fatalf("decode mismatch on %s:\nfast:   %+v\noracle: %+v", line, rec.Stats, want.Stats)
			}
		}
	})
}

// TestEncodeAllocs guards the zero-allocation encode contract for the
// string-free hot records (steady-state WriteJSONL reuses one buffer).
func TestEncodeAllocs(t *testing.T) {
	dci := DCIRecord{At: 12345, OwnPRB: 20, MCS: 17, TBSBits: 8192, HARQRetx: true}
	pkt := PacketRecord{Seq: 99, Size: 1200, SentAt: 777, Arrived: 888}
	stats := WebRTCStatsRecord{At: 555, InboundFPS: 29.97, TargetBitrateBps: 2.5e6}
	buf := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		for _, rec := range []Record{{DCI: &dci}, {Packet: &pkt}, {Stats: &stats}} {
			var err error
			if buf, err = appendLine(buf[:0], rec); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Fatalf("encode allocates %v/record-batch, want 0", avg)
	}
}

// TestDecodeAllocs guards the fast decoder's allocation budget: a line
// decodes into its block's columns, so once they have grown it
// allocates nothing (strings excepted).
func TestDecodeAllocs(t *testing.T) {
	line := []byte(`{"type":"stats","data":{"At":555,"Local":true,"InboundFPS":29.97,"TargetBitrateBps":2.5e+06,"GCCNetState":1}}`)
	var b Block
	var d jsonlDecoder
	if avg := testing.AllocsPerRun(200, func() {
		b.reset()
		p := lineParser{buf: line, ok: true}
		if p.decode(&b, &d); !p.ok {
			t.Fatal("fast path rejected canonical stats line")
		}
	}); avg != 0 {
		t.Fatalf("decode allocates %v/line, want 0", avg)
	}
}

// TestWriteJSONLMatchesLegacyEncoder regenerates a sample set through
// the new writer and through a line-by-line oracle re-encode, pinning
// whole-file byte equality — the golden-trace guarantee.
func TestWriteJSONLMatchesLegacyEncoder(t *testing.T) {
	set := sampleSet()
	var got bytes.Buffer
	if err := WriteJSONL(&got, set); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(bytes.NewReader(got.Bytes()))
	var want bytes.Buffer
	for {
		rec, err := sr.Next()
		if err != nil {
			break
		}
		line, err := oracleLine(t, recordTypeName(rec), recordPayload(rec))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteJSONL output differs from the encoding/json oracle")
	}
}
