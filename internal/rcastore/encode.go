package rcastore

import (
	"strconv"

	"github.com/domino5g/domino/internal/trace"
)

// This file renders the query surface's four answers — records,
// top_chains, cause_rates, fired + matches — by appending to a buffer
// the caller owns. The bytes are those json.Encoder with a two-space
// indent gives for map[string]any{"records": rows} and its siblings
// (members in key order, HTML escaping on, omitempty honoured, null for
// a nil slice and [] for an empty one, a trailing newline), which
// TestAnswerEncodersMatchEncodingJSON pins; what differs is the cost: no
// reflection, no second indenting pass, no allocation beyond the buffer.
// The fleet tier leans on the layout being fixed: an array element a
// node wrote sits in a dominolb answer byte for byte, so the balancer
// copies the rows it ranks instead of decoding and re-encoding them
// (the Splice functions at the end).

// indent is a newline and the deepest indentation an answer uses; its
// prefixes are the line breaks at every shallower depth.
const indent = "\n          "

// answerEnc appends one answer. Depths count two-space indents: an
// answer's array sits at depth 1, its elements at 2, their members at 3.
type answerEnc struct{ b []byte }

func (e *answerEnc) raw(s string)   { e.b = append(e.b, s...) }
func (e *answerEnc) str(s string)   { e.b = trace.AppendJSONString(e.b, s) }
func (e *answerEnc) num(v int64)    { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *answerEnc) line(depth int) { e.b = append(e.b, indent[:1+2*depth]...) }

// float appends v as encoding/json renders it. JSON has no NaN or
// infinity (json.Encoder fails on one, leaving an empty body); such a
// value is written as null.
func (e *answerEnc) float(v float64) {
	var ok bool
	if e.b, ok = trace.AppendJSONFloat(e.b, v); !ok {
		e.raw("null")
	}
}

// key starts the member name — a quoted literal with its colon and
// space — of an object whose members sit at depth.
func (e *answerEnc) key(depth int, name string) {
	if e.b[len(e.b)-1] != '{' {
		e.raw(",")
	}
	e.line(depth)
	e.raw(name)
}

// endObject closes an object whose members sat at depth.
func (e *answerEnc) endObject(depth int) {
	e.line(depth - 1)
	e.raw("}")
}

// elem starts element i of an array whose elements sit at depth.
func (e *answerEnc) elem(i, depth int) {
	if i == 0 {
		e.raw("[")
	} else {
		e.raw(",")
	}
	e.line(depth)
}

// endArray closes a non-empty array whose elements sat at depth.
func (e *answerEnc) endArray(depth int) {
	e.line(depth - 1)
	e.raw("]")
}

// open starts an answer whose first member is name and reports whether
// that member's array has elements to write; one without is rendered
// here, null when the slice is nil and [] otherwise.
func (e *answerEnc) open(name string, n int, isNil bool) bool {
	e.raw("{")
	return e.array(name, n, isNil)
}

// array is open for a member after the first.
func (e *answerEnc) array(name string, n int, isNil bool) bool {
	e.key(1, name)
	switch {
	case isNil:
		e.raw("null")
	case n == 0:
		e.raw("[]")
	}
	return n > 0
}

func (e *answerEnc) close() []byte {
	e.raw("\n}\n")
	return e.b
}

// strings appends a non-empty string array whose elements sit at depth.
func (e *answerEnc) strings(ss []string, depth int) {
	for i, s := range ss {
		e.elem(i, depth)
		e.str(s)
	}
	e.endArray(depth)
}

// runs appends a non-empty array of {name, "runs"} objects — a record's
// chains or causes — whose elements sit at depth.
func (e *answerEnc) runs(n, depth int, name string, at func(i int) (string, int)) {
	for i := 0; i < n; i++ {
		s, runs := at(i)
		e.elem(i, depth)
		e.raw("{")
		e.key(depth+1, name)
		e.str(s)
		e.key(depth+1, `"runs": `)
		e.num(int64(runs))
		e.endObject(depth + 1)
	}
	e.endArray(depth)
}

// record appends r as an array element at depth 2, left open so a Match
// can add its distance after the embedded record's members.
func (e *answerEnc) record(r *Record) {
	e.raw("{")
	e.key(3, `"session": `)
	e.str(r.Session)
	e.key(3, `"cell": `)
	e.str(r.Cell)
	if r.Scenario != "" {
		e.key(3, `"scenario": `)
		e.str(r.Scenario)
	}
	e.key(3, `"start_us": `)
	e.num(int64(r.Start))
	e.key(3, `"end_us": `)
	e.num(int64(r.End))
	if len(r.Fired) > 0 {
		e.key(3, `"fired": `)
		e.strings(r.Fired, 4)
	}
	if len(r.Chains) > 0 {
		e.key(3, `"chains": `)
		e.runs(len(r.Chains), 4, `"chain": `, func(i int) (string, int) { return r.Chains[i].Chain, r.Chains[i].Runs })
	}
	if len(r.Causes) > 0 {
		e.key(3, `"causes": `)
		e.runs(len(r.Causes), 4, `"cause": `, func(i int) (string, int) { return r.Causes[i].Cause, r.Causes[i].Runs })
	}
}

// AppendRecordsAnswer appends GET /query's answer without agg=.
func AppendRecordsAnswer(dst []byte, records []Record) []byte {
	e := answerEnc{dst}
	if e.open(`"records": `, len(records), records == nil) {
		for i := range records {
			e.elem(i, 2)
			e.record(&records[i])
			e.endObject(3)
		}
		e.endArray(2)
	}
	return e.close()
}

// AppendTopChainsAnswer appends the answer to agg=top_chains.
func AppendTopChainsAnswer(dst []byte, chains []ChainAgg) []byte {
	e := answerEnc{dst}
	if e.open(`"top_chains": `, len(chains), chains == nil) {
		for i := range chains {
			c := &chains[i]
			e.elem(i, 2)
			e.raw("{")
			e.key(3, `"chain": `)
			e.str(c.Chain)
			e.key(3, `"runs": `)
			e.num(int64(c.Runs))
			e.key(3, `"sessions": `)
			e.num(int64(c.Sessions))
			e.endObject(3)
		}
		e.endArray(2)
	}
	return e.close()
}

// AppendCauseRatesAnswer appends the answer to agg=cause_rates.
func AppendCauseRatesAnswer(dst []byte, rates []CauseBucket) []byte {
	e := answerEnc{dst}
	if e.open(`"cause_rates": `, len(rates), rates == nil) {
		for i := range rates {
			c := &rates[i]
			e.elem(i, 2)
			e.raw("{")
			e.key(3, `"cell": `)
			e.str(c.Cell)
			e.key(3, `"bucket_us": `)
			e.num(int64(c.Bucket))
			e.key(3, `"cause": `)
			e.str(c.Cause)
			e.key(3, `"runs": `)
			e.num(int64(c.Runs))
			e.key(3, `"sessions": `)
			e.num(int64(c.Sessions))
			e.key(3, `"minutes": `)
			e.float(c.Minutes)
			e.key(3, `"runs_per_min": `)
			e.float(c.RunsPerMin)
			e.endObject(3)
		}
		e.endArray(2)
	}
	return e.close()
}

// AppendSimilarAnswer appends GET /incidents/similar's answer: the probe
// signature and the ranked matches.
func AppendSimilarAnswer(dst []byte, fired []string, matches []Match) []byte {
	e := answerEnc{dst}
	if e.open(`"fired": `, len(fired), fired == nil) {
		e.strings(fired, 2)
	}
	if e.array(`"matches": `, len(matches), matches == nil) {
		for i := range matches {
			e.elem(i, 2)
			e.record(&matches[i].Record)
			e.key(3, `"distance": `)
			e.num(int64(matches[i].Distance))
			e.endObject(3)
		}
		e.endArray(2)
	}
	return e.close()
}

// splice appends a non-empty array at depth 1 of n elements that are
// already rendered, each as record or a Match is rendered above.
func (e *answerEnc) splice(n int, elem func(i int) []byte) {
	for i := 0; i < n; i++ {
		e.elem(i, 2)
		e.b = append(e.b, elem(i)...)
	}
	e.endArray(2)
}

// AppendRecordsSplice appends AppendRecordsAnswer's answer for n records
// that are at hand as bytes: elem(i) is record i exactly as an answer of
// these encoders holds it, brace to brace. It is how the fleet tier
// writes the rows it took from its nodes' answers without decoding them.
func AppendRecordsSplice(dst []byte, n int, elem func(i int) []byte) []byte {
	e := answerEnc{dst}
	if e.open(`"records": `, n, false) {
		e.splice(n, elem)
	}
	return e.close()
}

// AppendSimilarSplice is AppendRecordsSplice for AppendSimilarAnswer's
// answer: fired is the signature array and elem(i) match i, each as such
// an answer holds it.
func AppendSimilarSplice(dst, fired []byte, n int, elem func(i int) []byte) []byte {
	e := answerEnc{append(dst, '{')}
	e.key(1, `"fired": `)
	e.b = append(e.b, fired...)
	if e.array(`"matches": `, n, false) {
		e.splice(n, elem)
	}
	return e.close()
}
