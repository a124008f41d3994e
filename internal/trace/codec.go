package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// This file is the JSONL codec for the trace hot path. Both halves are
// driven by one member list per record type, read off the record struct
// (rowFieldsOf): the struct is where a field is named, and nothing here
// names one.
//
// Encoder: appendRow walks the member list and appends each value, which
// is byte for byte what json.Marshal of the record wrapped in the
// {"type","data"} envelope (HTML-escaped) produces — the encoding/json
// oracle in codec_test.go and the digests in golden_test.go pin that —
// at zero allocations per record.
//
// Decoder: two tiers. The fast tier is the encoder's mirror: it reads
// the layout appendRow writes and nothing else — the compact envelope,
// then the data members in declaration order, any of them absent, none
// repeated, no whitespace anywhere — keyed by the same member list, and
// writes each row where it is kept: a block's columns (the four column
// series, each by a straight-line decoder), a block's stats row (decoded
// in place by the member walk, decodeRow), or the header. It reads a
// line where the scanner buffered it, among the lines after it, and
// finds the line's end as it parses: `}}` and a newline. It reads a word
// at a time: the envelope's `{"type":` and `,"data":` are one 8-byte
// compare each; each member's key with its separator (`,"Dir":`, or
// `{"At":` for the object's first) is compared as at most three
// little-endian words under masks precomputed from the member list;
// true and false are 4- and 5-byte constants; a plain integer (at most
// 18 digits, no leading zero, ended by a byte no number token contains)
// is parsed in the pass that scans it, and so is a float of at most 15
// significant digits and a decimal exponent within ±22, converted by
// one exact multiplication or division (Clinger's fast path); any other
// number takes strconv. Every other line — spaced, reordered or
// repeated members, unknown or case-folded field names, escaped
// strings, nulls, exotic numbers — goes to the second tier,
// encoding/json (slowDecode), which therefore stays both the semantic
// oracle (differential tests in codec_test.go pin fast == stdlib on
// everything the fast tier accepts) and the handler of foreign telemetry.

const hexDigits = "0123456789abcdef"

// jsonSafe marks ASCII bytes that encoding/json (with HTML escaping,
// the json.Marshal default) copies through unescaped.
var jsonSafe = [utf8.RuneSelf]bool{}

func init() {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		jsonSafe[b] = true
	}
	for _, b := range []byte{'"', '\\', '<', '>', '&'} {
		jsonSafe[b] = false
	}
}

// AppendJSONString appends s as a JSON string literal exactly as
// json.Marshal renders it (HTML escaping on, invalid UTF-8 replaced,
// U+2028/U+2029 escaped).
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes other than \b, \f, \n, \r, \t, and the
				// HTML-sensitive <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f exactly as json.Marshal renders float64
// values. It reports false for NaN and infinities, which JSON cannot
// represent (json.Marshal errors on them).
func AppendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim the exponent's leading zero ("e-09" → "e-9"), as
		// encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// errUnsupportedFloat mirrors json.Marshal's refusal of NaN/Inf.
type errUnsupportedFloat struct{}

func (errUnsupportedFloat) Error() string {
	return "trace: unsupported float value (NaN or Inf) in record"
}

// appendRow appends the envelope line (no newline) of type typ whose
// data object is *row, walking the member list decodeRow reads the line
// back with: every member in declaration order, an omitempty string
// skipped when empty. A NaN or an infinity fails the line, as in
// json.Marshal, and dst comes back as it was.
func appendRow[T any](dst []byte, typ string, row *T, fields []rowField) ([]byte, error) {
	b := append(append(append(dst, `{"type":"`...), typ...), `","data":{`...)
	open, base := len(b), unsafe.Pointer(row)
	for i := range fields {
		f, at := &fields[i], unsafe.Add(base, fields[i].off)
		if f.omitEmpty && *(*string)(at) == "" {
			continue
		}
		if len(b) == open {
			b = append(b, f.lit[1:]...) // the object's first member: no comma
		} else {
			b = append(b, f.lit...)
		}
		switch f.kind {
		case reflect.Int64:
			b = strconv.AppendInt(b, *(*int64)(at), 10)
		case reflect.Int:
			b = strconv.AppendInt(b, int64(*(*int)(at)), 10)
		case reflect.Uint32:
			b = strconv.AppendUint(b, uint64(*(*uint32)(at)), 10)
		case reflect.Uint64:
			b = strconv.AppendUint(b, *(*uint64)(at), 10)
		case reflect.Float64:
			var ok bool
			if b, ok = AppendJSONFloat(b, *(*float64)(at)); !ok {
				return dst, errUnsupportedFloat{}
			}
		case reflect.Bool:
			b = strconv.AppendBool(b, *(*bool)(at))
		case reflect.String:
			b = AppendJSONString(b, *(*string)(at))
		}
	}
	return append(b, "}}"...), nil
}

// appendLine appends the envelope line of a header or data record.
func appendLine(dst []byte, rec Record) ([]byte, error) {
	switch {
	case rec.Header != nil:
		h := jsonHeader(*rec.Header)
		return appendRow(dst, "header", &h, headerFields)
	case rec.DCI != nil:
		return appendRow(dst, "dci", rec.DCI, dciFields)
	case rec.GNB != nil:
		return appendRow(dst, "gnb", rec.GNB, gnbFields)
	case rec.Packet != nil:
		return appendRow(dst, "pkt", rec.Packet, pktFields)
	case rec.Stats != nil:
		return appendRow(dst, "stats", rec.Stats, statsFields)
	case rec.RRC != nil:
		return appendRow(dst, "rrc", rec.RRC, rrcFields)
	}
	return dst, nil
}

// --- Decoder fast path ---

// lineParser scans the JSONL line at its cursor, in a buffer that may
// hold the lines after it too: no scan that succeeds crosses a newline.
// Any deviation from the fast-path subset clears ok; the caller then
// re-decodes the line through encoding/json, so bailing out is never an
// error by itself.
type lineParser struct {
	buf  []byte
	pos  int
	ok   bool
	lead byte // the separator before the object's next member: '{' before its first, else ','
}

// The fast tier's constants, as the little-endian words they are
// compared as.
var (
	typeWord  = binary.LittleEndian.Uint64([]byte(`{"type":`))
	dataWord  = binary.LittleEndian.Uint64([]byte(`,"data":`))
	trueWord  = binary.LittleEndian.Uint32([]byte("true"))
	falseWord = binary.LittleEndian.Uint32([]byte("fals"))
)

// word consumes the 8 bytes at the cursor, which must be w.
func (p *lineParser) word(w uint64) {
	if len(p.buf)-p.pos >= 8 && binary.LittleEndian.Uint64(p.buf[p.pos:]) == w {
		p.pos += 8
	} else {
		p.ok = false
	}
}

// key scans the envelope's type tag and returns its raw bytes. A tag
// with escapes is not fast-path material.
func (p *lineParser) key() []byte {
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		p.ok = false
		return nil
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			k := p.buf[start:p.pos]
			p.pos++
			return k
		case c == '\\' || c < 0x20:
			p.ok = false
			return nil
		default:
			p.pos++
		}
	}
	p.ok = false
	return nil
}

// stringValue reads a JSON string with no escapes and valid UTF-8;
// anything else bails to the stdlib path (which handles unescaping and
// replacement exactly once, in one place). A value equal to prev, what
// the member held on the previous row of its series, is prev itself
// rather than a new allocation (a gNB log repeats a handful of notes).
func (p *lineParser) stringValue(f *rowField, prev string) string {
	if !p.member(f) {
		return ""
	}
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		p.ok = false
		return ""
	}
	p.pos++
	start := p.pos
	ascii := true
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			raw := p.buf[start:p.pos]
			p.pos++
			if !ascii && !utf8.Valid(raw) {
				// encoding/json replaces invalid UTF-8 with U+FFFD;
				// let it.
				p.ok = false
				return ""
			}
			if string(raw) == prev {
				return prev
			}
			return string(raw)
		case c == '\\' || c < 0x20:
			p.ok = false
			return ""
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			p.pos++
		}
	}
	p.ok = false
	return ""
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// tokString views a scanned token as a string without copying, for the
// strconv parse calls only — they do not retain their argument, and the
// backing line buffer outlives the call.
func tokString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// numberToken consumes the number at the cursor and returns it, for
// strconv; bytes that are not one fail the line.
func (p *lineParser) numberToken() []byte {
	_, n, _ := scanNumber(p.buf[p.pos:])
	tok := p.buf[p.pos : p.pos+n]
	p.pos += n
	p.ok = p.ok && n > 0
	return tok
}

// plainInt parses the plain decimal integer b starts with in one pass:
// an optional minus, 1–18 digits (so it cannot overflow an int64), no
// leading zero (the JSON grammar), and the byte after it not one that
// continues a number token. It returns the value and the bytes it
// spans, or a width of 0 for anything else; the caller then takes
// numberToken and strconv, which know the whole grammar and every
// overflow.
func plainInt(b []byte) (v int64, n int) {
	if len(b) > 0 && b[0] == '-' {
		n = 1
	}
	start, end := n, min(len(b), n+19)
	var u uint64
	for ; n < end; n++ {
		d := b[n] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	if d := n - start; d == 0 || d > 18 || (d > 1 && b[start] == '0') {
		return 0, 0
	}
	if n < len(b) {
		switch b[n] {
		case '-', '+', '.', 'e', 'E':
			return 0, 0
		}
	}
	if start == 1 {
		return -int64(u), n
	}
	return int64(u), n
}

// i64 reads an integer. Fractional or exponent forms bail out, as
// strconv refuses them: encoding/json errors on them for integer
// fields, and the fallback produces that error.
func (p *lineParser) i64(f *rowField) int64 {
	if !p.member(f) {
		return 0
	}
	if v, n := plainInt(p.buf[p.pos:]); n > 0 {
		p.pos += n
		return v
	}
	v, err := strconv.ParseInt(tokString(p.numberToken()), 10, 64)
	p.ok = p.ok && err == nil
	return v
}

// u64 reads an unsigned integer of the given bits.
func (p *lineParser) u64(f *rowField, bits int) uint64 {
	if !p.member(f) {
		return 0
	}
	if v, n := plainInt(p.buf[p.pos:]); n > 0 && p.buf[p.pos] != '-' && uint64(v)>>bits == 0 {
		p.pos += n
		return uint64(v)
	}
	v, err := strconv.ParseUint(tokString(p.numberToken()), 10, bits)
	p.ok = p.ok && err == nil
	return v
}

// f64 reads a float: the encoder's numbers in scanNumber's one pass,
// any other from the bytes that pass spanned, through strconv.
func (p *lineParser) f64(f *rowField) float64 {
	if !p.member(f) {
		return 0
	}
	v, n, exact := scanNumber(p.buf[p.pos:])
	if !exact {
		f, err := strconv.ParseFloat(tokString(p.buf[p.pos:p.pos+n]), 64)
		v, p.ok = f, p.ok && err == nil // an empty token (n == 0) fails too
	}
	p.pos += n
	return v
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanNumber scans the JSON number b starts with, checks it against the
// grammar and converts it in one pass by Clinger's fast path: a
// significand of at most 15 digits (leading zeros are not significant,
// trailing ones are) and 10^k for k ≤ 22 are exact in a float64, so one
// multiplication or division rounds once, as strconv.ParseFloat does.
// n is the bytes the number spans, 0 when b does not start with one
// ("01", "+1", "1.", "1-2"); exact reports whether v is its value.
func scanNumber(b []byte) (v float64, n int, exact bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n++
	}
	var m uint64
	nd, exp := 0, 0 // significant digits in m; the power of ten it is scaled by
	i := n
	for ; n < len(b) && isDigit(b[n]); n++ {
		if nd > 0 || b[n] != '0' {
			m, nd = m*10+uint64(b[n]-'0'), nd+1
		}
	}
	if n == i || (b[i] == '0' && n > i+1) {
		return 0, 0, false // no integer part, or one with a leading zero
	}
	if n < len(b) && b[n] == '.' {
		for n, i = n+1, n+1; n < len(b) && isDigit(b[n]); n++ {
			if nd > 0 || b[n] != '0' {
				m, nd = m*10+uint64(b[n]-'0'), nd+1
			}
			exp--
		}
		if n == i {
			return 0, 0, false
		}
	}
	if n < len(b) && b[n]|0x20 == 'e' {
		n++
		sign := byte('+')
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			sign, n = b[n], n+1
		}
		e := 0
		for i = n; n < len(b) && isDigit(b[n]); n++ {
			if e < 1e9 { // past that no line's fraction digits bring it back to ±22
				e = e*10 + int(b[n]-'0')
			}
		}
		if n == i {
			return 0, 0, false
		}
		if sign == '-' {
			e = -e
		}
		exp += e
	}
	if n < len(b) {
		switch b[n] {
		case '-', '+', '.', 'e', 'E':
			return 0, 0, false
		}
	}
	if nd > 15 || exp < -22 || exp > 22 {
		return 0, n, false
	}
	v = float64(m)
	if exp < 0 {
		v /= exactPow10[-exp]
	} else {
		v *= exactPow10[exp]
	}
	if neg {
		v = -v
	}
	return v, n, true
}

// boolValue reads true or false as a 4- or 5-byte constant.
func (p *lineParser) boolValue(f *rowField) bool {
	if !p.member(f) {
		return false
	}
	b := p.buf[p.pos:]
	switch {
	case len(b) >= 4 && binary.LittleEndian.Uint32(b) == trueWord:
		p.pos += 4
		return true
	case len(b) >= 5 && binary.LittleEndian.Uint32(b) == falseWord && b[4] == 'e':
		p.pos += 5
		return false
	}
	p.ok = false
	return false
}

// rowField is one member of a record type's JSON object: its key as the
// encoder writes it after another member (`,"Dir":`), that key again as
// the little-endian words the fast tier compares (the bytes past its
// end masked off), where in the row, and as what, its value is stored,
// and whether the encoder leaves an empty one out.
type rowField struct {
	lit       string
	key, mask [3]uint64
	load      int // bytes the word compare reads: len(lit) rounded up to a word
	off       uintptr
	kind      reflect.Kind
	omitEmpty bool
}

// keyAt reports whether b starts with the member's key literal, its
// separator replaced by lead: ',' after another member, '{' opening the
// object. A b shorter than the words the compare loads is compared byte
// by byte, so no load reads past it.
func (f *rowField) keyAt(b []byte, lead byte) bool {
	if len(b) < f.load {
		return len(b) >= len(f.lit) && b[0] == lead && string(b[1:len(f.lit)]) == f.lit[1:]
	}
	x := (binary.LittleEndian.Uint64(b) ^ f.key[0] ^ uint64(lead^',')) & f.mask[0]
	if f.load > 8 {
		x |= (binary.LittleEndian.Uint64(b[8:]) ^ f.key[1]) & f.mask[1]
	}
	if f.load > 16 {
		x |= (binary.LittleEndian.Uint64(b[16:]) ^ f.key[2]) & f.mask[2]
	}
	return x == 0
}

// rowFieldsOf lists a row type's members from the struct itself, the
// way encoding/json — the oracle — reads it: keyed by json tag or else
// field name, in declaration order, an omitempty string left out when
// empty. The struct is therefore the only place that names a record
// type's fields to the JSONL codec, encoder and decoder both.
func rowFieldsOf(row any) []rowField {
	t := reflect.TypeOf(row)
	fs := make([]rowField, t.NumField())
	for i := range fs {
		sf := t.Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if name == "" {
			name = sf.Name
		}
		kind := sf.Type.Kind()
		switch kind {
		case reflect.Int64, reflect.Int, reflect.Uint32, reflect.Uint64, reflect.Float64, reflect.Bool, reflect.String:
		default:
			panic("trace: no fast codec for " + t.Name() + "." + sf.Name)
		}
		if opts != "" && (opts != "omitempty" || kind != reflect.String) {
			panic("trace: no fast codec for the json options of " + t.Name() + "." + sf.Name)
		}
		lit := `,"` + name + `":`
		if len(lit) > 8*len(fs[i].key) {
			panic("trace: key too long for the fast tier: " + t.Name() + "." + sf.Name)
		}
		f := rowField{lit: lit, load: (len(lit) + 7) &^ 7, off: sf.Offset, kind: kind, omitEmpty: opts != ""}
		for j := range len(lit) {
			f.key[j/8] |= uint64(lit[j]) << (j % 8 * 8)
			f.mask[j/8] |= 0xff << (j % 8 * 8)
		}
		fs[i] = f
	}
	return fs
}

var (
	headerFields = rowFieldsOf(jsonHeader{})
	dciFields    = rowFieldsOf(DCIRecord{})
	gnbFields    = rowFieldsOf(GNBLogRecord{})
	pktFields    = rowFieldsOf(PacketRecord{})
	statsFields  = rowFieldsOf(WebRTCStatsRecord{})
	rrcFields    = rowFieldsOf(RRCRecord{})
)

// member consumes f's key, after the separator p.lead, when it is next:
// each value reader starts with it, and returns zero for an absent f.
func (p *lineParser) member(f *rowField) bool {
	if !f.keyAt(p.buf[p.pos:], p.lead) {
		return false
	}
	p.pos += len(f.lit)
	p.lead = ','
	return true
}

// decodeRow decodes the members of the JSON object at the cursor into
// *row, a zero row of the type fields was listed from, reading exactly
// what appendRow writes: each member's separator and key as one
// literal, in declaration order, any member absent and left zero. The
// header and the stats series take this walk.
func decodeRow[T any](p *lineParser, row *T, fields []rowField) {
	base := unsafe.Pointer(row)
	for i := range fields {
		f, at := &fields[i], unsafe.Add(base, fields[i].off)
		switch f.kind {
		case reflect.Int64:
			*(*int64)(at) = p.i64(f)
		case reflect.Int:
			*(*int)(at) = int(p.i64(f))
		case reflect.Uint32:
			*(*uint32)(at) = uint32(p.u64(f, 32))
		case reflect.Uint64:
			*(*uint64)(at) = p.u64(f, 64)
		case reflect.Float64:
			*(*float64)(at) = p.f64(f)
		case reflect.Bool:
			*(*bool)(at) = p.boolValue(f)
		case reflect.String:
			*(*string)(at) = p.stringValue(f, "")
		}
	}
}

// end consumes the closing braces (after the object's own, when it has
// no member) and the line's end — "\n", "\r\n", or the end of the last
// token, where a lone "\r" is one ScanLines drops too — and reports
// whether the whole line was fast-path material.
func (p *lineParser) end() bool {
	rest, closing := p.buf[p.pos:], "}}"
	if p.lead == '{' { // no member: only an empty object is fast-path material
		closing = "{}}"
	}
	n := len(closing)
	switch {
	case !p.ok || len(rest) < n || string(rest[:n]) != closing:
		p.ok, n = false, 0
	case len(rest) == n:
	case rest[n] == '\n':
		n++
	case rest[n] == '\r' && (len(rest) == n+1 || rest[n+1] == '\n'):
		n = min(len(rest), n+2)
	default:
		p.ok, n = false, 0
	}
	p.pos += n
	return p.ok
}

// The column series' decoders read their members in declaration order
// into a row on the stack and, when the line ends as it must, append
// the row to the block's columns. The keys are the member list's, by
// position; TestFastTierReadsEveryMember catches a field left unread.

func (p *lineParser) dci(c *DCIColumns) {
	f := dciFields
	r := DCIRecord{
		At:        sim.Time(p.i64(&f[0])),
		Dir:       netem.Direction(p.i64(&f[1])),
		RNTI:      uint32(p.u64(&f[2], 32)),
		OwnPRB:    int(p.i64(&f[3])),
		OtherPRB:  int(p.i64(&f[4])),
		MCS:       int(p.i64(&f[5])),
		TBSBits:   int(p.i64(&f[6])),
		UsedBits:  int(p.i64(&f[7])),
		HARQRetx:  p.boolValue(&f[8]),
		RLCRetx:   p.boolValue(&f[9]),
		Proactive: p.boolValue(&f[10]),
		Unused:    p.boolValue(&f[11]),
	}
	if p.end() {
		c.append(&r)
	}
}

func (p *lineParser) gnb(c *GNBColumns, prev *string) {
	f := gnbFields
	r := GNBLogRecord{
		At:          sim.Time(p.i64(&f[0])),
		Kind:        GNBLogKind(p.i64(&f[1])),
		Dir:         netem.Direction(p.i64(&f[2])),
		BufferBytes: int(p.i64(&f[3])),
		RNTI:        uint32(p.u64(&f[4], 32)),
		Note:        p.stringValue(&f[5], *prev),
	}
	if p.end() {
		c.append(&r)
		*prev = r.Note
	}
}

func (p *lineParser) pkt(c *PacketColumns) {
	f := pktFields
	r := PacketRecord{
		Seq:     p.u64(&f[0], 64),
		Kind:    netem.MediaKind(p.i64(&f[1])),
		Dir:     netem.Direction(p.i64(&f[2])),
		Size:    int(p.i64(&f[3])),
		SentAt:  sim.Time(p.i64(&f[4])),
		Arrived: sim.Time(p.i64(&f[5])),
	}
	if p.end() {
		c.append(&r)
	}
}

func (p *lineParser) rrc(c *RRCColumns, prev *string) {
	f := rrcFields
	r := RRCRecord{
		At:        sim.Time(p.i64(&f[0])),
		Connected: p.boolValue(&f[1]),
		RNTI:      uint32(p.u64(&f[2], 32)),
		Cause:     p.stringValue(&f[3], *prev),
	}
	if p.end() {
		c.append(&r)
		*prev = r.Cause
	}
}

// lineHeader is the kind of a header line; a data line's kind is its
// series index.
const lineHeader = NumSeries

// decode decodes the line at the cursor into b, or sr.hdr for a header,
// and returns its kind, the cursor at the next line. ok=false means
// only "not fast-path material", with nothing appended: the caller
// re-decodes the line through encoding/json (slowDecode), which yields
// the identical row or the authoritative error.
func (p *lineParser) decode(b *Block, sr *StreamReader) (kind int) {
	// The type tag is scanned as raw bytes (key() is exactly a
	// no-escape string scan), so dispatching allocates nothing.
	p.word(typeWord)
	typ := p.key()
	if p.word(dataWord); !p.ok {
		return 0
	}
	p.lead = '{'
	switch string(typ) {
	case "header":
		var h jsonHeader
		if decodeRow(p, &h, headerFields); p.end() {
			hdr := Header(h)
			sr.hdr = &hdr
		}
		return lineHeader
	case "dci":
		kind = SeriesDCI
		p.dci(&b.DCI)
	case "gnb":
		kind = SeriesGNB
		p.gnb(&b.GNB, &sr.note)
	case "pkt":
		kind = SeriesPkt
		p.pkt(&b.Pkt)
	case "stats":
		kind = SeriesStats
		b.Stats = append(b.Stats, WebRTCStatsRecord{}) // decoded in place
		r := &b.Stats[len(b.Stats)-1]
		if decodeRow(p, r, statsFields); p.end() {
			b.StatsAt = append(b.StatsAt, r.At)
		} else {
			b.Stats = b.Stats[:len(b.Stats)-1]
		}
	case "rrc":
		kind = SeriesRRC
		p.rrc(&b.RRC, &sr.cause)
	default:
		p.ok = false
	}
	if p.ok {
		b.Tags = append(b.Tags, uint8(kind))
	}
	return kind
}

// slowDecode is decode through encoding/json, for one line: the oracle
// of the differential tests, and the decoder of foreign telemetry.
func slowDecode(line []byte, b *Block, sr *StreamReader) (int, error) {
	var l jsonLine
	if err := json.Unmarshal(line, &l); err != nil {
		return 0, err
	}
	var rec Record
	var err error
	switch l.Type {
	case "header":
		var h *jsonHeader
		if h, err = slowRow[jsonHeader](l.Data); err == nil {
			sr.hdr = (*Header)(h)
		}
		return lineHeader, err
	case "dci":
		rec.DCI, err = slowRow[DCIRecord](l.Data)
	case "gnb":
		rec.GNB, err = slowRow[GNBLogRecord](l.Data)
	case "pkt":
		rec.Packet, err = slowRow[PacketRecord](l.Data)
	case "stats":
		rec.Stats, err = slowRow[WebRTCStatsRecord](l.Data)
	case "rrc":
		rec.RRC, err = slowRow[RRCRecord](l.Data)
	default:
		return 0, fmt.Errorf("unknown record type %q", l.Type)
	}
	if err != nil {
		return 0, err
	}
	return b.add(rec), nil
}

// slowRow unmarshals a line's data object into a new row.
func slowRow[T any](data []byte) (*T, error) {
	v := new(T)
	return v, json.Unmarshal(data, v)
}
