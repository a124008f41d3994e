package rcastore

import "github.com/domino5g/domino/internal/jsonenc"

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

// answerEnc appends one answer: the layout is jsonenc's, the shapes of
// the rows this file's. An answer's array sits at depth 1, its elements
// at 2, their members at 3.
type answerEnc struct{ jsonenc.Encoder }

// strings appends a non-empty string array whose elements sit at depth.
func (e *answerEnc) strings(ss []string, depth int) {
	for i, s := range ss {
		e.Elem(i, depth)
		e.Str(s)
	}
	e.EndArray(depth)
}

// runs appends a non-empty array of {name, "runs"} objects — a record's
// chains or causes — whose elements sit at depth.
func (e *answerEnc) runs(n, depth int, name string, at func(i int) (string, int)) {
	for i := 0; i < n; i++ {
		s, runs := at(i)
		e.Elem(i, depth)
		e.Raw("{")
		e.StrMember(depth+1, name, s)
		e.IntMember(depth+1, `"runs": `, int64(runs))
		e.EndObject(depth + 1)
	}
	e.EndArray(depth)
}

// record appends r as an array element at depth 2, left open so a Match
// can add its distance after the embedded record's members.
func (e *answerEnc) record(r *Record) {
	e.Raw("{")
	e.StrMember(3, `"session": `, r.Session)
	e.StrMember(3, `"cell": `, r.Cell)
	if r.Scenario != "" {
		e.StrMember(3, `"scenario": `, r.Scenario)
	}
	e.IntMember(3, `"start_us": `, int64(r.Start))
	e.IntMember(3, `"end_us": `, int64(r.End))
	if len(r.Fired) > 0 {
		e.Key(3, `"fired": `)
		e.strings(r.Fired, 4)
	}
	if len(r.Chains) > 0 {
		e.Key(3, `"chains": `)
		e.runs(len(r.Chains), 4, `"chain": `, func(i int) (string, int) { return r.Chains[i].Chain, r.Chains[i].Runs })
	}
	if len(r.Causes) > 0 {
		e.Key(3, `"causes": `)
		e.runs(len(r.Causes), 4, `"cause": `, func(i int) (string, int) { return r.Causes[i].Cause, r.Causes[i].Runs })
	}
}

// AppendRecordsAnswer appends GET /query's answer without agg=.
func AppendRecordsAnswer(dst []byte, records []Record) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	if e.Array(`"records": `, len(records), records == nil) {
		for i := range records {
			e.Elem(i, 2)
			e.record(&records[i])
			e.EndObject(3)
		}
		e.EndArray(2)
	}
	return e.Close()
}

// AppendTopChainsAnswer appends the answer to agg=top_chains.
func AppendTopChainsAnswer(dst []byte, chains []ChainAgg) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	if e.Array(`"top_chains": `, len(chains), chains == nil) {
		for i := range chains {
			c := &chains[i]
			e.Elem(i, 2)
			e.Raw("{")
			e.StrMember(3, `"chain": `, c.Chain)
			e.IntMember(3, `"runs": `, int64(c.Runs))
			e.IntMember(3, `"sessions": `, int64(c.Sessions))
			e.EndObject(3)
		}
		e.EndArray(2)
	}
	return e.Close()
}

// AppendCauseRatesAnswer appends the answer to agg=cause_rates.
func AppendCauseRatesAnswer(dst []byte, rates []CauseBucket) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	if e.Array(`"cause_rates": `, len(rates), rates == nil) {
		for i := range rates {
			c := &rates[i]
			e.Elem(i, 2)
			e.Raw("{")
			e.StrMember(3, `"cell": `, c.Cell)
			e.IntMember(3, `"bucket_us": `, int64(c.Bucket))
			e.StrMember(3, `"cause": `, c.Cause)
			e.IntMember(3, `"runs": `, int64(c.Runs))
			e.IntMember(3, `"sessions": `, int64(c.Sessions))
			e.FloatMember(3, `"minutes": `, c.Minutes)
			e.FloatMember(3, `"runs_per_min": `, c.RunsPerMin)
			e.EndObject(3)
		}
		e.EndArray(2)
	}
	return e.Close()
}

// AppendSimilarAnswer appends GET /incidents/similar's answer: the probe
// signature and the ranked matches.
func AppendSimilarAnswer(dst []byte, fired []string, matches []Match) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	if e.Array(`"fired": `, len(fired), fired == nil) {
		e.strings(fired, 2)
	}
	if e.Array(`"matches": `, len(matches), matches == nil) {
		for i := range matches {
			e.Elem(i, 2)
			e.record(&matches[i].Record)
			e.IntMember(3, `"distance": `, int64(matches[i].Distance))
			e.EndObject(3)
		}
		e.EndArray(2)
	}
	return e.Close()
}

// splice appends a non-empty array at depth 1 of n elements that are
// already rendered, each as record or a Match is rendered above.
func (e *answerEnc) splice(n int, elem func(i int) []byte) {
	for i := 0; i < n; i++ {
		e.Elem(i, 2)
		e.B = append(e.B, elem(i)...)
	}
	e.EndArray(2)
}

// AppendRecordsSplice appends AppendRecordsAnswer's answer for n records
// that are at hand as bytes: elem(i) is record i exactly as an answer of
// these encoders holds it, brace to brace. It is how the fleet tier
// writes the rows it took from its nodes' answers without decoding them.
func AppendRecordsSplice(dst []byte, n int, elem func(i int) []byte) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	if e.Array(`"records": `, n, false) {
		e.splice(n, elem)
	}
	return e.Close()
}

// AppendSimilarSplice is AppendRecordsSplice for AppendSimilarAnswer's
// answer: fired is the signature array and elem(i) match i, each as such
// an answer holds it.
func AppendSimilarSplice(dst, fired []byte, n int, elem func(i int) []byte) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	e.Key(1, `"fired": `)
	e.B = append(e.B, fired...)
	if e.Array(`"matches": `, n, false) {
		e.splice(n, elem)
	}
	return e.Close()
}
