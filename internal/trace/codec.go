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
// writes each row where it is kept: a block's columns, a block's stats
// row (decoded in place), or the header. It reads a line where the
// scanner buffered it, among the lines after it, and finds the line's
// end as it parses: `}}` and a newline. It reads a word at a time: the
// envelope's `{"type":` and `,"data":` are one 8-byte compare each; each
// member's key with its separator (`,"Dir":`, or `{"At":` for the
// object's first) is three little-endian words of a 24-byte window
// under masks precomputed from the member list; true and false are 4-
// and 5-byte constants; a plain integer (1–18 digits, no sign, no
// leading zero, ended by ',' or '}') is parsed in the pass that scans
// it. Those three reads are small enough for the compiler to inline, so
// a member costs no call: the cursor stays in registers, and the one
// member walk (decodeRow), which reads every row type, calls out only
// for the rare rest — a key in a token's last 24 bytes, any other
// integer, floats and strings. A float of at most 15 significant digits
// and a decimal exponent within ±22 is converted in its one scan by one
// exact multiplication or division (Clinger's fast path); any other
// number takes strconv. Every other line — spaced, reordered or repeated
// members, unknown or case-folded field names, escaped strings, nulls,
// exotic numbers — goes to the second tier, encoding/json (slowDecode),
// which therefore stays both the semantic oracle (differential tests in
// codec_test.go pin fast == stdlib on everything the fast tier accepts)
// and the handler of foreign telemetry.

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

// The value readers below take the line and the cursor at a member's
// value and return the value and the cursor past it, or len(b) — where
// no line ends, since "}}" follows every value — when it is not
// fast-path material. A failed read thus hands the next reader a cursor
// that fails it too, so a run of reads needs one check, at its end.
// boolAt and digitsAt inline; the rest are the outlined slow halves.

// boolAt reads true or false as a 4- or 5-byte constant, from a line
// with room for the shortest bool member's end, `true}}`.
func boolAt(b []byte, i int) (bool, int) {
	if len(b)-i >= len("true}}") {
		switch binary.LittleEndian.Uint32(b[i:]) {
		case trueWord:
			return true, i + 4
		case falseWord:
			if b[i+4] == 'e' {
				return false, i + 5
			}
		}
	}
	return false, len(b)
}

// digitsAt reads the common integer: 1–18 plain digits (which every
// integer member's storage holds, but for a uint32's range), no sign,
// no leading zero, ended by ',' or '}'. Anything else is intAt's.
func digitsAt(b []byte, i int) (uint64, int) {
	j, v := i, uint64(0)
	for ; j < len(b) && b[j]-'0' < 10; j++ {
		v = v*10 + uint64(b[j]-'0')
	}
	if uint(j-i-1) >= 18 || j == len(b) || !intEnd[b[j]] || (b[i] == '0' && j > i+1) {
		return 0, len(b)
	}
	return v, j
}

// intEnd marks the bytes that may end a member's value.
var intEnd = [256]bool{',': true, '}': true}

// intAt reads any other integer as f stores it: the bytes scanNumber
// spans, through strconv, which knows every overflow and refuses
// fractions and exponents as encoding/json does for an integer member.
// The value comes back as the bits f's storage holds.
func (f *rowField) intAt(b []byte, i int) (uint64, int) {
	_, n, _ := scanNumber(b[i:])
	tok := tokString(b[i : i+n])
	if f.kind == reflect.Uint32 || f.kind == reflect.Uint64 {
		if v, err := strconv.ParseUint(tok, 10, 8*int(f.size)); err == nil {
			return v, i + n
		}
	} else if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return uint64(v), i + n
	}
	return 0, len(b) // an empty token (n == 0) fails too
}

// floatAt reads a float: the encoder's numbers in scanNumber's one
// pass, any other from the bytes that pass spanned, through strconv.
func floatAt(b []byte, i int) (float64, int) {
	v, n, exact := scanNumber(b[i:])
	if exact {
		return v, i + n
	}
	if v, err := strconv.ParseFloat(tokString(b[i:i+n]), 64); err == nil {
		return v, i + n
	}
	return 0, len(b) // an empty token (n == 0) fails too
}

// stringAt reads a JSON string with no escapes and valid UTF-8;
// anything else bails to the stdlib path (which handles unescaping and
// replacement exactly once, in one place). A value equal to prev, what
// the member held on the previous row of its series, is prev itself
// rather than a new allocation (a gNB log repeats a handful of notes).
func stringAt(b []byte, i int, prev string) (string, int) {
	if i == len(b) || b[i] != '"' {
		return "", len(b)
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			raw := b[i+1 : j]
			if !ascii && !utf8.Valid(raw) {
				// encoding/json replaces invalid UTF-8 with U+FFFD;
				// let it.
				return "", len(b)
			}
			if string(raw) == prev {
				return prev, j + 1
			}
			return string(raw), j + 1
		case c == '\\' || c < 0x20:
			return "", len(b)
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", len(b)
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

// rowField is one member of a record type's JSON object: its key as the
// encoder writes it after another member (`,"Dir":`), that key again as
// the little-endian words the fast tier compares (the bytes past its
// end masked off), where in the row, and as what, its value is stored,
// and whether the encoder leaves an empty one out.
type rowField struct {
	lit       string
	key, mask [3]uint64
	off       uintptr
	size      uintptr // the value's storage, in bytes
	max       uint64  // the largest plain integer the storage holds as is
	kind      reflect.Kind
	omitEmpty bool
}

// keyWindow is the bytes after's key compare loads: the three words of
// the longest key literal rowFieldsOf admits.
const keyWindow = 8 * len(rowField{}.key)

// keyAt reports whether b starts with the member's key literal, its
// separator replaced by lead: ',' after another member, '{' opening the
// object. It is after's slow half, for a cursor among the last
// keyWindow bytes of the scanner's token: byte by byte, so that no load
// reads past it.
func (f *rowField) keyAt(b []byte, lead byte) bool {
	return len(b) >= len(f.lit) && b[0] == lead && string(b[1:len(f.lit)]) == f.lit[1:]
}

// after returns the cursor past the member's key at b[i:], after lead,
// comparing the keyWindow bytes there as three masked words. It returns
// len(b), which fails a value reader, when the key is not there, or
// when fewer than keyWindow bytes are left (keyAt's case).
func (f *rowField) after(b []byte, i int, lead byte) int {
	if len(b)-i >= keyWindow {
		w := (*[keyWindow]byte)(b[i:])
		if (binary.LittleEndian.Uint64(w[:8])^f.key[0]^uint64(lead^','))&f.mask[0]|
			(binary.LittleEndian.Uint64(w[8:16])^f.key[1])&f.mask[1]|
			(binary.LittleEndian.Uint64(w[16:])^f.key[2])&f.mask[2] == 0 {
			return i + len(f.lit)
		}
	}
	return len(b)
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
		if len(lit) > keyWindow {
			panic("trace: key too long for the fast tier: " + t.Name() + "." + sf.Name)
		}
		f := rowField{lit: lit, off: sf.Offset, size: sf.Type.Size(), max: math.MaxUint64, kind: kind, omitEmpty: opts != ""}
		if f.size == 4 {
			f.max = math.MaxUint32
		}
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

// decodeRow decodes the members of the JSON object at the cursor into
// *row, a zero row of the type fields was listed from, reading exactly
// what appendRow writes: each member's separator and key as one
// literal, in declaration order, any member absent and left zero. A
// string member equal to prev is prev (stringAt). It is the one member
// walk, for every row type, and the one place a member's range is
// checked (f.max). The cursor stays in locals, the key compare, a plain
// integer and a bool are inlined, and the rest calls out: a key among
// the token's last keyWindow bytes, any other integer, floats and
// strings.
func decodeRow[T any](p *lineParser, row *T, fields []rowField, prev string) {
	b, i, lead, base := p.buf, p.pos, p.lead, unsafe.Pointer(row)
	for k := range fields {
		f := &fields[k]
		j := f.after(b, i, lead)
		if j == len(b) {
			if len(b)-i >= keyWindow || !f.keyAt(b[i:], lead) {
				continue // absent
			}
			j = i + len(f.lit)
		}
		i, lead = j, ','
		at := unsafe.Add(base, f.off)
		switch f.kind {
		case reflect.Bool:
			*(*bool)(at), i = boolAt(b, i)
		case reflect.Float64:
			*(*float64)(at), i = floatAt(b, i)
		case reflect.String:
			*(*string)(at), i = stringAt(b, i, prev)
		default:
			v, j := digitsAt(b, i)
			if j == len(b) || v > f.max {
				v, j = f.intAt(b, i)
			}
			if i = j; f.size == 4 {
				*(*uint32)(at) = uint32(v)
			} else {
				*(*uint64)(at) = v
			}
		}
		if i == len(b) {
			p.ok = false
			return
		}
	}
	p.pos, p.lead = i, lead
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

// lineHeader is the kind of a header line; a data line's kind is its
// series index.
const lineHeader = NumSeries

// decode decodes the line at the cursor into b, or d.hdr for a header,
// and returns its kind, the cursor at the next line. ok=false means
// only "not fast-path material", with nothing appended: the caller
// re-decodes the line through encoding/json (slowDecode), which yields
// the identical row or the authoritative error.
func (p *lineParser) decode(b *Block, d *jsonlDecoder) (kind int) {
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
		if decodeRow(p, &h, headerFields, ""); p.end() {
			hdr := Header(h)
			d.hdr = &hdr
		}
		return lineHeader
	case "dci":
		kind = SeriesDCI
		var r DCIRecord
		if decodeRow(p, &r, dciFields, ""); p.end() {
			b.DCI.append(&r)
		}
	case "gnb":
		kind = SeriesGNB
		var r GNBLogRecord
		if decodeRow(p, &r, gnbFields, d.note); p.end() {
			b.GNB.append(&r)
			d.note = r.Note
		}
	case "pkt":
		kind = SeriesPkt
		var r PacketRecord
		if decodeRow(p, &r, pktFields, ""); p.end() {
			b.Pkt.append(&r)
		}
	case "stats":
		kind = SeriesStats
		b.Stats = append(b.Stats, WebRTCStatsRecord{}) // decoded in place
		r := &b.Stats[len(b.Stats)-1]
		if decodeRow(p, r, statsFields, ""); p.end() {
			b.StatsAt = append(b.StatsAt, r.At)
		} else {
			b.Stats = b.Stats[:len(b.Stats)-1]
		}
	case "rrc":
		kind = SeriesRRC
		var r RRCRecord
		if decodeRow(p, &r, rrcFields, d.cause); p.end() {
			b.RRC.append(&r)
			d.cause = r.Cause
		}
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
func slowDecode(line []byte, b *Block, d *jsonlDecoder) (int, error) {
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
			d.hdr = (*Header)(h)
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
