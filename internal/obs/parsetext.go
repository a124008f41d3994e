package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// This file is the one reader of exposition text, and the scrape half
// of the dominolb federation seam: ParseText turns a backend's /metrics
// text back into the Snapshot it was rendered from, so the balancer can
// obs.Merge per-node snapshots into one fleet exposition. It is the
// inverse of Snapshot.WriteText and is deliberately strict — it parses
// the dialect WriteText emits (HELP then TYPE then contiguous samples,
// counter/gauge/histogram only), not arbitrary Prometheus text.
// Anything else is an error, because a half-parsed snapshot would merge
// into silently wrong fleet numbers. What the text cannot get wrong but
// the numbers can is Snapshot.violations (promlint.go), which ParseText
// and Lint both apply to what parse returns.

// parseHist accumulates one histogram series (one non-le label
// signature) while its _bucket/_sum/_count lines stream past.
type parseHist struct {
	labels   []Label // the series labels minus le
	buckets  []Bucket
	haveInf  bool
	infCount int64
	sum      float64
	count    int64
	sawCount bool
}

// parseFam is one family under assembly.
type parseFam struct {
	fam Family
	// histogram series by labelKey, in first-seen order.
	hist  map[string]*parseHist
	hkeys []string
	last  *parseHist // the series of the family's latest line
}

// maxTextLine caps one line of exposition text, its newline not
// counted: a line this long fails the parse with bufio.ErrTooLong, as
// it did bufio.Scanner's with a buffer of this size.
const maxTextLine = 1 << 20

// readDoc reads the document into one string, which parse takes every
// line, name and unescaped label value out of as a substring. It stops
// reading at a line of maxTextLine bytes, which parse refuses, so a line
// with no end costs no more memory than that. A read error comes back
// with the text read before it.
func readDoc(r io.Reader) (string, error) {
	size := 512
	if n, ok := r.(interface{ Len() int }); ok {
		size = n.Len() + 1 // and the read that finds the end
	}
	buf := make([]byte, 0, size)
	var err error
	for run := 0; run < maxTextLine && err == nil; { // run: the bytes since the last newline
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		var n int
		n, err = r.Read(buf[len(buf):cap(buf)])
		if i := bytes.LastIndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
			run = n - 1 - i
		} else {
			run += n
		}
		buf = buf[:len(buf)+n]
	}
	if err == io.EOF {
		err = nil
	}
	// buf is never written again: the string may share it, as
	// strings.Builder's does.
	return unsafe.String(unsafe.SliceData(buf), len(buf)), err
}

// ParseText parses a Prometheus text exposition document written by
// Snapshot.WriteText back into the equivalent Snapshot, and fails on
// the first format or Snapshot rule it breaks: what ParseText accepts,
// Lint finds nothing in. ParseText(w) after s.WriteText(w) yields s
// again, so scrape → parse → Merge → WriteText composes losslessly
// across nodes.
func ParseText(r io.Reader) (Snapshot, error) {
	snap, err := parse(r)
	if err != nil {
		return Snapshot{}, err
	}
	if errs := snap.violations(); len(errs) > 0 {
		return Snapshot{}, errs[0]
	}
	return snap, nil
}

// parse is the state machine over the text. Family and sample order
// follow the document; histogram series are reassembled from their
// _bucket/_sum/_count lines and checked for what only the text shows
// (le bounds ascending and finite, +Inf present and equal to _count).
func parse(r io.Reader) (Snapshot, error) {
	text, readErr := readDoc(r)

	fams := map[string]*parseFam{}
	var order []*parseFam
	var cur *parseFam
	var scratch []Label // a histogram line's labels, which no sample keeps

	lineNo := 0
	fail := func(format string, a ...any) (Snapshot, error) {
		return Snapshot{}, fmt.Errorf("obs: parse line %d: %s", lineNo, fmt.Sprintf(format, a...))
	}
	for text != "" {
		lineNo++
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if len(line) >= maxTextLine {
			return Snapshot{}, fmt.Errorf("obs: parse: %w", bufio.ErrTooLong)
		}
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parseMetaLine(line)
			if !ok {
				continue // plain comment
			}
			switch kind {
			case "HELP":
				if fams[name] != nil {
					return fail("family %q declared twice", name)
				}
				cur = &parseFam{fam: Family{Name: name, Help: unescapeHelp(rest)}}
				fams[name] = cur
				order = append(order, cur)
			case "TYPE":
				if cur == nil || cur.fam.Name != name {
					return fail("TYPE %q without preceding HELP", name)
				}
				if cur.fam.Type != "" {
					return fail("duplicate TYPE for %q", name)
				}
				switch Type(rest) {
				case TypeCounter, TypeGauge, TypeHistogram:
					cur.fam.Type = Type(rest)
				default:
					return fail("unsupported TYPE %q for %q", rest, name)
				}
			}
			continue
		}

		var dst []Label
		if cur != nil && cur.fam.Type == TypeHistogram {
			dst = scratch[:0]
		}
		name, labels, valStr, err := parseSampleLine(line, dst)
		if err != nil {
			return fail("%v", err)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fail("bad value %q", valStr)
		}
		if cur == nil || cur.fam.Type == "" {
			return fail("sample %q before # HELP and # TYPE", name)
		}
		if cur.fam.Type != TypeHistogram {
			if name != cur.fam.Name {
				return fail("sample %q outside family %q block", name, cur.fam.Name)
			}
			cur.fam.Samples = append(cur.fam.Samples, Sample{Labels: labels, Value: val})
			continue
		}

		suffix, ok := strings.CutPrefix(name, cur.fam.Name)
		if !ok {
			return fail("sample %q outside histogram %q block", name, cur.fam.Name)
		}
		scratch = labels
		var le string
		haveLE := false
		series := labels[:0] // labels without le, in place
		for _, l := range labels {
			if l.Key == "le" {
				if haveLE {
					return fail(`duplicate label "le"`)
				}
				le, haveLE = l.Value, true
				continue
			}
			series = append(series, l)
		}
		h := cur.last
		if h == nil || !slices.Equal(h.labels, series) {
			key := labelKey(series)
			if h = cur.hist[key]; h == nil {
				h = &parseHist{buckets: []Bucket{}}
				if len(series) > 0 { // a le-only label set means an unlabeled series
					h.labels = slices.Clone(series)
				}
				if cur.hist == nil {
					cur.hist = map[string]*parseHist{}
				}
				cur.hist[key] = h
				cur.hkeys = append(cur.hkeys, key)
			}
			cur.last = h
		}
		switch suffix {
		case "_bucket":
			if !haveLE {
				return fail("%s_bucket without le label", cur.fam.Name)
			}
			n, ierr := sampleInt(val)
			if ierr != nil {
				return fail("bucket count %q: %v", valStr, ierr)
			}
			if le == "+Inf" {
				h.haveInf, h.infCount = true, n
				break
			}
			bound, berr := strconv.ParseFloat(le, 64)
			if berr != nil || math.IsInf(bound, 0) {
				return fail("bad le %q", le)
			}
			if h.haveInf {
				return fail("%s bucket after +Inf", cur.fam.Name)
			}
			if k := len(h.buckets); k > 0 && bound <= h.buckets[k-1].LE {
				return fail("%s buckets out of order at le=%q", cur.fam.Name, le)
			}
			h.buckets = append(h.buckets, Bucket{LE: bound, Count: n})
		case "_sum":
			h.sum = val
		case "_count":
			n, ierr := sampleInt(val)
			if ierr != nil {
				return fail("histogram count %q: %v", valStr, ierr)
			}
			h.sawCount, h.count = true, n
		default:
			return fail("histogram sample %q: want _bucket/_sum/_count suffix", name)
		}
	}
	if readErr != nil {
		return Snapshot{}, fmt.Errorf("obs: parse: %w", readErr)
	}

	var out Snapshot
	for _, pf := range order {
		if pf.fam.Type == "" {
			return Snapshot{}, fmt.Errorf("obs: parse: family %q has HELP but no TYPE", pf.fam.Name)
		}
		for _, key := range pf.hkeys {
			h := pf.hist[key]
			if !h.haveInf {
				return Snapshot{}, fmt.Errorf("obs: parse: histogram %s{%s}: no +Inf bucket", pf.fam.Name, strings.TrimSuffix(key, ","))
			}
			if h.sawCount && h.count != h.infCount {
				return Snapshot{}, fmt.Errorf("obs: parse: histogram %s{%s}: +Inf bucket %d != _count %d", pf.fam.Name, strings.TrimSuffix(key, ","), h.infCount, h.count)
			}
			pf.fam.Samples = append(pf.fam.Samples, Sample{
				Labels:  h.labels,
				Buckets: h.buckets,
				Sum:     h.sum,
				Count:   h.infCount,
			})
		}
		out.Families = append(out.Families, pf.fam)
	}
	return out, nil
}

// sampleInt converts an exposition value that must be a cumulative
// count back to int64.
func sampleInt(v float64) (int64, error) {
	if v != math.Trunc(v) || math.Abs(v) >= 1e15 {
		return 0, fmt.Errorf("not an integral count")
	}
	return int64(v), nil
}

// unescapeHelp reverses appendEscapedHelp: \\ and \n back to their
// literal characters.
func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
