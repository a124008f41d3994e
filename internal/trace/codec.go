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
// repeated, no whitespace anywhere — walking the same member list, so a
// row decodes into storage the caller supplies: StreamReader.Next copies
// it into the one Record it hands out, ReadBlock appends it to a block's
// columns. It reads a word at a time: the envelope's `{"type":` and
// `,"data":` are one 8-byte compare each; each member's key with its
// separator (`,"Dir":`, or `{"At":` for the object's first) is compared
// as at most three little-endian words under masks precomputed from the
// member list; true and false are 4- and 5-byte constants; a plain
// integer (at most 18 digits, no leading zero, ended by a byte no number
// token contains) is parsed in the pass that scans it, and a float of at
// most 15 significant digits and a decimal exponent within ±22 is one
// exact multiplication or division (Clinger's fast path); any other
// number takes the token scan and strconv. Every other line — spaced,
// reordered or repeated members, unknown or case-folded field names,
// escaped strings, nulls, exotic numbers — goes to the second tier,
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

// lineParser scans one JSONL line. Any deviation from the fast-path
// subset clears ok; the caller then re-decodes the line through
// encoding/json, so bailing out is never an error by itself.
type lineParser struct {
	buf []byte
	pos int
	ok  bool
	// prev is what the string member of the row being filled held on the
	// previous line of its type: an equal value is reused rather than
	// allocated again (a gNB log repeats a handful of notes).
	prev string
}

// The fast tier's constants, as the little-endian words they are
// compared as.
var (
	typeWord  = binary.LittleEndian.Uint64([]byte(`{"type":`))
	dataWord  = binary.LittleEndian.Uint64([]byte(`,"data":`))
	trueWord  = binary.LittleEndian.Uint32([]byte("true"))
	falseWord = binary.LittleEndian.Uint32([]byte("fals"))
)

// word consumes the 8 bytes at the cursor when they are w.
func (p *lineParser) word(w uint64) bool {
	if len(p.buf)-p.pos >= 8 && binary.LittleEndian.Uint64(p.buf[p.pos:]) == w {
		p.pos += 8
		return true
	}
	return false
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

// stringValue scans a JSON string with no escapes and valid UTF-8;
// anything else bails to the stdlib path (which handles unescaping and
// replacement exactly once, in one place).
func (p *lineParser) stringValue() string {
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
			if string(raw) == p.prev {
				return p.prev
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

// numberToken scans the contiguous number-shaped token at the cursor
// and validates it against the JSON number grammar (encoding/json
// rejects "01", "+1", "1.", etc. — so must we, or the fast path would
// accept inputs the oracle rejects).
func (p *lineParser) numberToken() []byte {
	start := p.pos
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case isDigit(c), c == '-', c == '+', c == '.', c == 'e', c == 'E':
			p.pos++
		default:
			goto done
		}
	}
done:
	tok := p.buf[start:p.pos]
	if !validJSONNumber(tok) {
		p.ok = false
		return nil
	}
	return tok
}

func validJSONNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i++
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i == len(b)
}

// plainInt parses the plain decimal integer b starts with in one pass:
// an optional minus, 1–18 digits (so it cannot overflow an int64), no
// leading zero (the JSON grammar), and the byte after it not one that
// continues a number token. It returns the value and the bytes it
// spans, or a width of 0 for anything else; the caller then takes the
// numberToken route, which knows the whole grammar and every overflow.
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

// i64 parses an integer value. Fractional or exponent forms bail out:
// encoding/json errors on them for integer fields, and the fallback
// produces that error.
func (p *lineParser) i64() int64 {
	if v, n := plainInt(p.buf[p.pos:]); n > 0 {
		p.pos += n
		return v
	}
	tok := p.numberToken()
	if !p.ok {
		return 0
	}
	for _, c := range tok {
		if c == '.' || c == 'e' || c == 'E' {
			p.ok = false
			return 0
		}
	}
	v, err := strconv.ParseInt(tokString(tok), 10, 64)
	if err != nil {
		p.ok = false
		return 0
	}
	return v
}

func (p *lineParser) u64(bits int) uint64 {
	if v, n := plainInt(p.buf[p.pos:]); n > 0 && p.buf[p.pos] != '-' && uint64(v)>>bits == 0 {
		p.pos += n
		return uint64(v)
	}
	tok := p.numberToken()
	if !p.ok {
		return 0
	}
	for _, c := range tok {
		if c == '.' || c == 'e' || c == 'E' || c == '-' {
			p.ok = false
			return 0
		}
	}
	v, err := strconv.ParseUint(tokString(tok), 10, bits)
	if err != nil {
		p.ok = false
		return 0
	}
	return v
}

func (p *lineParser) f64() float64 {
	tok := p.numberToken()
	if !p.ok {
		return 0
	}
	if v, ok := exactFloat(tok); ok {
		return v
	}
	v, err := strconv.ParseFloat(tokString(tok), 64)
	if err != nil {
		p.ok = false
		return 0
	}
	return v
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat converts a grammar-valid number token by Clinger's fast
// path: a significand of at most 15 digits (leading zeros are not
// significant, trailing ones are) is exact in a float64, as is 10^k for
// k ≤ 22, so one multiplication or division of the two rounds once and
// gives strconv.ParseFloat's answer. Any other token is declined.
func exactFloat(tok []byte) (float64, bool) {
	i, neg := 0, tok[0] == '-'
	if neg {
		i++
	}
	var m uint64
	nd, exp := 0, 0 // significant digits in m; the power of ten it is scaled by
	frac := false
	for ; i < len(tok); i++ {
		c := tok[i]
		if c == '.' {
			frac = true
			continue
		}
		if !isDigit(c) {
			break
		}
		if nd > 0 || c != '0' {
			m, nd = m*10+uint64(c-'0'), nd+1
		}
		if frac {
			exp--
		}
	}
	if i < len(tok) { // the exponent: 'e' or 'E', a sign, digits
		i++
		sign := tok[i]
		if sign == '+' || sign == '-' {
			i++
		}
		e := 0
		for ; i < len(tok); i++ {
			if e < 1e9 { // past that no line's fraction digits bring it back to ±22
				e = e*10 + int(tok[i]-'0')
			}
		}
		if sign == '-' {
			e = -e
		}
		exp += e
	}
	if nd > 15 || exp < -22 || exp > 22 {
		return 0, false
	}
	f := float64(m)
	if exp < 0 {
		f /= exactPow10[-exp]
	} else {
		f *= exactPow10[exp]
	}
	if neg {
		f = -f
	}
	return f, true
}

// boolValue reads true or false as a 4- or 5-byte constant.
func (p *lineParser) boolValue() bool {
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

// decodeRow decodes the JSON object at the cursor into *row, whose type
// fields was listed from, reading exactly what appendRow writes: the
// object's brace and first key, and after each value the separator and
// the next key, as one literal each, in declaration order. Any member may
// be absent and is left zero; none may repeat. The cursor stops after the
// last value, or after the brace of an empty object, and the caller's
// check of what follows fails a line with anything else there.
func decodeRow[T any](p *lineParser, row *T, fields []rowField) {
	*row = *new(T)
	base, lead := unsafe.Pointer(row), byte('{')
	for i := range fields {
		if !fields[i].keyAt(p.buf[p.pos:], lead) {
			continue
		}
		p.pos += len(fields[i].lit)
		at := unsafe.Add(base, fields[i].off)
		switch fields[i].kind {
		case reflect.Int64:
			*(*int64)(at) = p.i64()
		case reflect.Int:
			*(*int)(at) = int(p.i64())
		case reflect.Uint32:
			*(*uint32)(at) = uint32(p.u64(32))
		case reflect.Uint64:
			*(*uint64)(at) = p.u64(64)
		case reflect.Float64:
			*(*float64)(at) = p.f64()
		case reflect.Bool:
			*(*bool)(at) = p.boolValue()
		case reflect.String:
			*(*string)(at) = p.stringValue()
		}
		if !p.ok {
			return
		}
		lead = ','
	}
	if lead == '{' { // no member: only an empty object is fast-path material
		p.ok = p.pos < len(p.buf) && p.buf[p.pos] == '{'
		p.pos++
	}
}

// lineHeader is the kind of a header line; a data line's kind is its
// series index.
const lineHeader = NumSeries

// lineRow is the scratch a line decodes into: the member of the line's
// kind is filled, the others are left as they were.
type lineRow struct {
	hdr   jsonHeader
	dci   DCIRecord
	gnb   GNBLogRecord
	pkt   PacketRecord
	stats WebRTCStatsRecord
	rrc   RRCRecord
}

// header returns the decoded header line.
func (r *lineRow) header() *Header {
	h := Header(r.hdr)
	return &h
}

// record materialises the data row of the given kind as a Record.
func (r *lineRow) record(kind int) Record {
	switch kind {
	case SeriesDCI:
		v := r.dci
		return Record{DCI: &v}
	case SeriesGNB:
		v := r.gnb
		return Record{GNB: &v}
	case SeriesPkt:
		v := r.pkt
		return Record{Packet: &v}
	case SeriesStats:
		v := r.stats
		return Record{Stats: &v}
	default:
		v := r.rrc
		return Record{RRC: &v}
	}
}

// fastDecode decodes one envelope line in appendRow's layout into the
// row and returns its kind. ok=false means only "not fast-path material":
// the caller must re-decode the line through the encoding/json oracle
// (slowDecode), which yields the identical row for valid inputs and the
// authoritative error for invalid ones.
func (r *lineRow) fastDecode(line []byte) (kind int, ok bool) {
	p := lineParser{buf: line, ok: true}
	if !p.word(typeWord) {
		return 0, false
	}
	// The type tag is scanned as raw bytes (key() is exactly a
	// no-escape string scan), so dispatching allocates nothing.
	typ := p.key()
	if !p.ok || !p.word(dataWord) {
		return 0, false
	}
	switch string(typ) {
	case "header":
		kind = lineHeader
		decodeRow(&p, &r.hdr, headerFields)
	case "dci":
		kind = SeriesDCI
		decodeRow(&p, &r.dci, dciFields)
	case "gnb":
		kind, p.prev = SeriesGNB, r.gnb.Note
		decodeRow(&p, &r.gnb, gnbFields)
	case "pkt":
		kind = SeriesPkt
		decodeRow(&p, &r.pkt, pktFields)
	case "stats":
		kind = SeriesStats
		decodeRow(&p, &r.stats, statsFields)
	case "rrc":
		kind, p.prev = SeriesRRC, r.rrc.Cause
		decodeRow(&p, &r.rrc, rrcFields)
	default:
		return 0, false
	}
	return kind, p.ok && string(p.buf[p.pos:]) == "}}"
}

// slowDecode is fastDecode through encoding/json: the oracle of the
// differential tests, and the decoder of foreign telemetry.
func (r *lineRow) slowDecode(line []byte) (int, error) {
	var l jsonLine
	if err := json.Unmarshal(line, &l); err != nil {
		return 0, err
	}
	switch l.Type {
	case "header":
		r.hdr = jsonHeader{}
		return lineHeader, json.Unmarshal(l.Data, &r.hdr)
	case "dci":
		r.dci = DCIRecord{}
		return SeriesDCI, json.Unmarshal(l.Data, &r.dci)
	case "gnb":
		r.gnb = GNBLogRecord{}
		return SeriesGNB, json.Unmarshal(l.Data, &r.gnb)
	case "pkt":
		r.pkt = PacketRecord{}
		return SeriesPkt, json.Unmarshal(l.Data, &r.pkt)
	case "stats":
		r.stats = WebRTCStatsRecord{}
		return SeriesStats, json.Unmarshal(l.Data, &r.stats)
	case "rrc":
		r.rrc = RRCRecord{}
		return SeriesRRC, json.Unmarshal(l.Data, &r.rrc)
	}
	return 0, fmt.Errorf("unknown record type %q", l.Type)
}
