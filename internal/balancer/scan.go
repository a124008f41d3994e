package balancer

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file reads what a backend answers to a fan-out read without
// building it: one strict pass over the body checks that it is JSON laid
// out as every node lays it out (rcastore.Append…Answer and /sessions:
// json.Encoder's two-space indent and closing newline, nothing else
// between tokens) and keeps, for each element of the array the merge is
// about, where the element's bytes are and the few members a merge ranks
// or sums by. A merged answer is then those bytes copied in rank order
// (rcastore.AppendRecordsSplice, AppendSimilarSplice, mergeSessions) — a
// node lays an element out exactly as the balancer's answer holds it, so
// nothing is decoded into a Record or a session row and encoded back.

// row is one element of a scanned array. Members the element does not
// have stay zero; strings are views of the body unless they held an
// escape.
type row struct {
	raw                         []byte // the element, brace to brace
	session, chain, cell, cause []byte
	start, bucket               int64
	distance, runs, sessions    int
	minutes                     float64
}

// scanned is one backend answer after the pass.
type scanned struct {
	rows []row
	// fired is the top-level "fired" member as written, an array or
	// null, and nil when the answer has none; firedNames are its strings.
	fired      []byte
	firedNames [][]byte
}

// maxScanDepth bounds nesting: the scanner recurses once per level and
// the deepest answer a node writes has five.
const maxScanDepth = 32

// lines holds the canonical gap before a token at every depth: its
// prefix of 1+2·depth bytes.
var lines = "\n" + strings.Repeat("  ", maxScanDepth+1)

type scanner struct {
	b   []byte
	pos int
}

// arrayBody is the rowsKey of an answer that is itself the array of rows
// — a node's /sessions — rather than an object holding it.
const arrayBody = "[]"

// scanAnswer walks body, an object, filling a from it: the elements of
// the array under rowsKey (null counts as empty) and the "fired" member,
// which an answer under "matches" must have — it says which signature
// the matches are about. Under arrayBody the body is the array instead.
// It succeeds only on a body encoding/json would have accepted, to the
// last byte, and whose every gap is the canonical one: a span copied
// into a merged answer is then laid out for its place already.
func scanAnswer(body []byte, rowsKey string, a *scanned) error {
	a.rows, a.fired, a.firedNames = a.rows[:0], nil, a.firedNames[:0]
	s := scanner{b: body}
	rows := func(depth int) bool {
		a.rows = a.rows[:0] // a repeated member: the last one counts, as it does when decoding
		return s.array(depth, func() bool {
			a.rows = append(a.rows, row{})
			return s.row(&a.rows[len(a.rows)-1], depth+1)
		})
	}
	// Structure is ASCII, so bytes that are not UTF-8 can only sit inside
	// a string, where encoding/json would swap them for U+FFFD: a rewrite
	// a copied span cannot follow.
	ok := utf8.Valid(body)
	if rowsKey == arrayBody {
		ok = ok && rows(0)
	} else {
		ok = ok && s.at('{') && s.object(0, func(key []byte) bool {
			switch string(key) {
			case rowsKey:
				return s.null() || rows(1)
			case "fired":
				start := s.pos
				a.firedNames = a.firedNames[:0]
				ok := s.null() || s.array(1, func() bool {
					name, ok := s.str()
					a.firedNames = append(a.firedNames, name)
					return ok
				})
				a.fired = s.b[start:s.pos]
				return ok
			}
			return s.value(1)
		})
	}
	if !ok || string(body[s.pos:]) != "\n" {
		return fmt.Errorf("not a canonical JSON answer at byte %d of %d", s.pos, len(body))
	}
	if rowsKey == "matches" && a.fired == nil {
		return fmt.Errorf("a similar answer without its fired signature")
	}
	return nil
}

// row scans one array element, an object at depth, keeping the members
// merges use and checking the rest.
func (s *scanner) row(r *row, depth int) bool {
	start := s.pos
	ok := s.at('{') && s.object(depth, func(key []byte) (ok bool) {
		var n int64
		switch string(key) {
		case "session":
			r.session, ok = s.str()
		case "chain":
			r.chain, ok = s.str()
		case "cell":
			r.cell, ok = s.str()
		case "cause":
			r.cause, ok = s.str()
		case "start_us":
			r.start, ok = s.integer()
		case "bucket_us":
			r.bucket, ok = s.integer()
		case "distance":
			n, ok = s.integer()
			r.distance = int(n)
		case "runs":
			n, ok = s.integer()
			r.runs = int(n)
		case "sessions":
			n, ok = s.integer()
			r.sessions = int(n)
		case "minutes":
			r.minutes, ok = s.float()
		default:
			ok = s.value(depth + 1)
		}
		return ok
	})
	r.raw = s.b[start:s.pos]
	return ok
}

func (s *scanner) at(c byte) bool { return s.pos < len(s.b) && s.b[s.pos] == c }

// line passes the gap json.Encoder's two-space indent leaves before a
// token on a line of its own at depth: a line break and depth indents.
// Nearly half of an indented answer is such gaps, so each is matched in
// one comparison; the other gaps are nothing (before a colon or comma)
// and one space (after a colon). Whatever reads the token after a gap
// fails on whitespace, so a gap any wider fails the scan.
func (s *scanner) line(depth int) bool { return s.literal(lines[:1+2*depth]) }

// value checks any JSON value sitting at depth.
func (s *scanner) value(depth int) bool {
	if s.pos >= len(s.b) {
		return false
	}
	switch c := s.b[s.pos]; {
	case c == '{':
		return s.object(depth, nil)
	case c == '[':
		return s.array(depth, nil)
	case c == '"':
		_, _, ok := s.quoted()
		return ok
	case c == '-' || (c >= '0' && c <= '9'):
		_, ok := s.number()
		return ok
	}
	return s.null() || s.literal("true") || s.literal("false")
}

func (s *scanner) null() bool { return s.literal("null") }

func (s *scanner) literal(word string) bool {
	if len(s.b)-s.pos < len(word) || string(s.b[s.pos:s.pos+len(word)]) != word {
		return false
	}
	s.pos += len(word)
	return true
}

// object walks the object whose brace sits at depth. member, when set,
// is called for each key with the scanner on the value, which it must
// consume; otherwise values are only checked.
func (s *scanner) object(depth int, member func(key []byte) bool) bool {
	return s.list('}', depth, func() bool {
		key, ok := s.str()
		if !ok {
			return false
		}
		if !s.literal(": ") {
			return false
		}
		if member != nil {
			return member(key)
		}
		return s.value(depth + 1)
	})
}

// array walks the array whose bracket sits at depth; elem, when set,
// consumes each element.
func (s *scanner) array(depth int, elem func() bool) bool {
	if !s.at('[') {
		return false
	}
	return s.list(']', depth, func() bool {
		if elem != nil {
			return elem()
		}
		return s.value(depth + 1)
	})
}

// list walks a bracketed, comma-separated sequence that ends in end:
// the grammar objects and arrays share.
func (s *scanner) list(end byte, depth int, item func() bool) bool {
	if depth >= maxScanDepth {
		return false
	}
	s.pos++
	if s.at(end) { // "[]" and "{}" have nothing inside
		s.pos++
		return true
	}
	for s.line(depth+1) && item() {
		if s.at(',') {
			s.pos++
			continue
		}
		if !s.line(depth) || !s.at(end) { // the closing line
			return false
		}
		s.pos++
		return true
	}
	return false
}

// number passes one number token by JSON's grammar and returns it.
func (s *scanner) number() ([]byte, bool) {
	i, b := s.pos, s.b
	digits := func() bool {
		from := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	tok := b[s.pos:i]
	s.pos = i
	return tok, true
}

// integer passes a number that must be a plain int64, as decoding into
// an integer field demands.
func (s *scanner) integer() (int64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	return n, err == nil
}

// float passes a number a float64 can hold.
func (s *scanner) float() (float64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// str passes the string at the scanner and returns what it spells: a
// view of the body, or, when it holds an escape, what encoding/json
// makes of it (a surrogate pair one rune, half of one U+FFFD), so that
// an escaped session id ranks as the string a store holds.
func (s *scanner) str() ([]byte, bool) {
	from := s.pos
	raw, escaped, ok := s.quoted()
	if escaped {
		var spelled string
		_ = json.Unmarshal(s.b[from:s.pos], &spelled) // quoted checked it: a valid JSON string
		raw = []byte(spelled)
	}
	return raw, ok
}

// quoted passes the string at the scanner, checking every escape, and
// returns what stands between the quotes and whether any of it is an
// escape. A string nobody reads (most of a record) costs only this.
func (s *scanner) quoted() (raw []byte, escaped, ok bool) {
	if !s.at('"') {
		return nil, false, false
	}
	start := s.pos + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.pos = i + 1
			return s.b[start:i:i], escaped, true
		case c < ' ':
			return nil, false, false
		case c == '\\':
			escaped = true
			if i++; i >= len(s.b) {
				return nil, false, false
			}
			switch s.b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(s.b) || !hex4(s.b[i+1:]) {
					return nil, false, false
				}
				i += 4
			default:
				return nil, false, false
			}
		}
	}
	return nil, false, false
}

// hex4 reports whether b starts with four hex digits.
func hex4(b []byte) bool {
	for _, c := range b[:4] {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}
