// Package jsonenc renders JSON by appending to a buffer the caller
// owns, laid out byte for byte as json.Encoder with a two-space indent
// lays it out (ingest.WriteJSON): HTML escaping on, a trailing newline.
// It holds the layout — indentation, separators, null against [] — and
// leaves each answer's shape to its package: the RCA store's query
// answers and the node's session reports. What it saves over
// encoding/json is reflection and the second, indenting pass.
package jsonenc

import (
	"strconv"

	"github.com/domino5g/domino/internal/trace"
)

// indent is a newline and the deepest indentation an answer uses; its
// prefixes are the line breaks at every shallower depth.
const indent = "\n          "

// Encoder appends one answer to B. Depths count two-space indents: a
// top-level object's members sit at depth 1, the elements of an array
// among them at 2, their members at 3.
type Encoder struct{ B []byte }

// Raw, Str and line append a literal, a quoted and escaped string, and
// a line break indented to depth.
func (e *Encoder) Raw(s string)   { e.B = append(e.B, s...) }
func (e *Encoder) Str(s string)   { e.B = trace.AppendJSONString(e.B, s) }
func (e *Encoder) line(depth int) { e.B = append(e.B, indent[:1+2*depth]...) }

// Key starts the member name — a quoted literal with its colon and
// space — of an object whose members sit at depth.
func (e *Encoder) Key(depth int, name string) {
	if e.B[len(e.B)-1] != '{' {
		e.Raw(",")
	}
	e.line(depth)
	e.Raw(name)
}

// StrMember, IntMember and FloatMember append a member: its Key, then
// its value. JSON has no NaN or infinity (json.Encoder fails on one,
// leaving an empty body); such a float is written as null.
func (e *Encoder) StrMember(depth int, name, v string) { e.Key(depth, name); e.Str(v) }
func (e *Encoder) IntMember(depth int, name string, v int64) {
	e.Key(depth, name)
	e.B = strconv.AppendInt(e.B, v, 10)
}
func (e *Encoder) FloatMember(depth int, name string, v float64) {
	e.Key(depth, name)
	var ok bool
	if e.B, ok = trace.AppendJSONFloat(e.B, v); !ok {
		e.Raw("null")
	}
}

// EndObject closes an object whose members sat at depth; one with no
// members is {}.
func (e *Encoder) EndObject(depth int) {
	if e.B[len(e.B)-1] != '{' {
		e.line(depth - 1)
	}
	e.Raw("}")
}

// Elem starts element i of an array whose elements sit at depth.
func (e *Encoder) Elem(i, depth int) {
	if i == 0 {
		e.Raw("[")
	} else {
		e.Raw(",")
	}
	e.line(depth)
}

// EndArray closes a non-empty array whose elements sat at depth.
func (e *Encoder) EndArray(depth int) {
	e.line(depth - 1)
	e.Raw("]")
}

// Array starts the top-level member name, an array of n elements, and
// reports whether it has elements to write; one without is rendered
// here, null when the slice is nil and [] otherwise.
func (e *Encoder) Array(name string, n int, isNil bool) bool {
	e.Key(1, name)
	switch {
	case isNil:
		e.Raw("null")
	case n == 0:
		e.Raw("[]")
	}
	return n > 0
}

// Close ends the answer's top-level object and returns the buffer.
func (e *Encoder) Close() []byte {
	e.Raw("\n}\n")
	return e.B
}
