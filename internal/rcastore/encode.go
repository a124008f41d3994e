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
// Records and matches are written straight from a block's columns and
// the dictionaries' cached spellings (Store.Answer), never as Records.
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

// rows appends the top-level member name, the array of the stored rows
// ranked as Records or (matches) Matches encode. The caller holds at
// least the store's read lock.
func (e *answerEnc) rows(t *tables, name string, ranked []cand, isNil, matches bool) {
	if !e.Array(name, len(ranked), isNil) {
		return
	}
	for n, c := range ranked {
		e.Elem(n, 2)
		e.row(t, c.b, c.i)
		if matches {
			e.IntMember(3, `"distance": `, int64(c.d))
		}
		e.EndObject(3)
	}
	e.EndArray(2)
}

// row appends row i of block b as a Record element at depth 2, left open,
// its names from their dictionaries' spellings.
func (e *answerEnc) row(t *tables, b *block, i int) {
	e.Raw("{")
	e.StrMember(3, `"session": `, b.sessions[i])
	e.Key(3, `"cell": `)
	e.B = append(e.B, t.cells.spell[b.cellIDs[i]]...)
	if scen := b.scenIDs[i]; t.scens.names[scen] != "" {
		e.Key(3, `"scenario": `)
		e.B = append(e.B, t.scens.spell[scen]...)
	}
	e.IntMember(3, `"start_us": `, int64(b.starts[i]))
	e.IntMember(3, `"end_us": `, int64(b.ends[i]))
	fired, n := b.row(i), 0
	for _, id := range t.nodes.byName {
		if firedHas(fired, id) {
			if n == 0 {
				e.Key(3, `"fired": `)
			}
			e.Elem(n, 4)
			e.B = append(e.B, t.nodes.spell[id]...)
			n++
		}
	}
	if n > 0 {
		e.EndArray(4)
	}
	lo, hi := b.chainOff[i], b.chainOff[i+1]
	e.runs(`"chains": `, `"chain": `, t.chains, b.chainIDs[lo:hi], b.chainRuns[lo:hi])
	lo, hi = b.causeOff[i], b.causeOff[i+1]
	e.runs(`"causes": `, `"cause": `, t.causes, b.causeIDs[lo:hi], b.causeRuns[lo:hi])
}

// runs appends a row's member name — its chains or causes, entries of d
// with their run counts — unless it has none.
func (e *answerEnc) runs(name, entry string, d *dict, ids, runs []uint32) {
	if len(ids) == 0 {
		return
	}
	e.Key(3, name)
	for k, id := range ids {
		e.Elem(k, 4)
		e.Raw("{")
		e.Key(5, entry)
		e.B = append(e.B, d.spell[id]...)
		e.IntMember(5, `"runs": `, int64(runs[k]))
		e.EndObject(5)
	}
	e.EndArray(4)
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

// splice appends a non-empty array at depth 1 of n elements that are
// already rendered, each as row renders a record or a match.
func (e *answerEnc) splice(n int, elem func(i int) []byte) {
	for i := 0; i < n; i++ {
		e.Elem(i, 2)
		e.B = append(e.B, elem(i)...)
	}
	e.EndArray(2)
}

// AppendRecordsSplice appends a records answer (Store.Answer's) for n
// records that are at hand as bytes: elem(i) is record i exactly as such
// an answer holds it, brace to brace. It is how the fleet tier
// writes the rows it took from its nodes' answers without decoding them.
func AppendRecordsSplice(dst []byte, n int, elem func(i int) []byte) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	if e.Array(`"records": `, n, false) {
		e.splice(n, elem)
	}
	return e.Close()
}

// AppendSimilarSplice is AppendRecordsSplice for a similar answer: fired
// is the signature array and elem(i) match i, each as such an answer
// holds it.
func AppendSimilarSplice(dst, fired []byte, n int, elem func(i int) []byte) []byte {
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	e.Key(1, `"fired": `)
	e.B = append(e.B, fired...)
	if e.Array(`"matches": `, n, false) {
		e.splice(n, elem)
	}
	return e.Close()
}
