package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the format contract for every /metrics surface in the
// repo: the rules a Snapshot must keep for its exposition to be valid,
// Lint, which reports every one a document breaks, and the tokenizer
// parse (parsetext.go) reads lines with. The unit tests run dominod's
// output through Lint, cmd/promlint exposes it to the smoke scripts,
// and Snapshot.WriteText of a Snapshot with no violations satisfies it.

// LintStats summarizes a validated exposition document. Samples counts
// series: a histogram's _bucket/_sum/_count lines are one.
type LintStats struct {
	Families int
	Samples  int
}

// Lint validates a Prometheus text-exposition document: it parses it
// as ParseText does, so a document outside the dialect WriteText emits
// is one error naming the line, and then reports every Snapshot rule
// the parsed document breaks (see violations). Empty means valid, and
// that ParseText accepts the document.
func Lint(r io.Reader) ([]error, LintStats) {
	snap, err := parse(r)
	if err != nil {
		return []error{err}, LintStats{}
	}
	stats := LintStats{Families: len(snap.Families)}
	for _, f := range snap.Families {
		stats.Samples += len(f.Samples)
	}
	return snap.violations(), stats
}

// violations reports every rule about the data, not the text, that s
// breaks: family and label names well-formed, no label twice on one
// sample, HELP non-empty, counters named *_total and non-negative,
// histogram bucket counts non-negative, nondecreasing and no greater
// than the series count (the +Inf bucket). Merge of Snapshots that
// keep them keeps them; a valid one costs no allocation.
func (s Snapshot) violations() []error {
	var errs []error
	bad := func(format string, a ...any) {
		errs = append(errs, fmt.Errorf("obs: "+format, a...))
	}
	for _, f := range s.Families {
		if !nameOK(f.Name) {
			bad("invalid metric name %q", f.Name)
		}
		if f.Help == "" {
			bad("empty HELP text for %q", f.Name)
		}
		if f.Type == TypeCounter && !strings.HasSuffix(f.Name, "_total") {
			bad("counter %q must be named *_total", f.Name)
		}
		for _, smp := range f.Samples {
			for i, l := range smp.Labels {
				if !nameOK(l.Key) || strings.Contains(l.Key, ":") {
					bad("%s: invalid label name %q", f.Name, l.Key)
				}
				for _, prev := range smp.Labels[:i] {
					if prev.Key == l.Key {
						bad("%s: duplicate label %q", f.Name, l.Key)
						break
					}
				}
			}
			switch f.Type {
			case TypeCounter:
				if smp.Value < 0 {
					bad("counter %s is negative", seriesName(f.Name, smp.Labels))
				}
			case TypeHistogram:
				var prev int64
				for _, b := range smp.Buckets {
					switch {
					case b.Count < 0:
						bad("histogram %s: negative bucket count at le=%q", seriesName(f.Name, smp.Labels), fmtFloat(b.LE))
					case b.Count < prev:
						bad("histogram %s: bucket counts not cumulative at le=%q", seriesName(f.Name, smp.Labels), fmtFloat(b.LE))
					}
					prev = b.Count
				}
				switch {
				case smp.Count < 0:
					bad("histogram %s: negative count", seriesName(f.Name, smp.Labels))
				case smp.Count < prev:
					bad("histogram %s: bucket count %d above the +Inf bucket's %d", seriesName(f.Name, smp.Labels), prev, smp.Count)
				}
			}
		}
	}
	return errs
}

// seriesName names one series of a family in a message.
func seriesName(family string, labels []Label) string {
	if len(labels) == 0 {
		return family
	}
	return family + "{" + strings.TrimSuffix(labelKey(labels), ",") + "}"
}

// parseMetaLine splits a "# HELP name text" / "# TYPE name type" line.
// ok is false for plain comments.
func parseMetaLine(line string) (kind, name, rest string, ok bool) {
	body, found := strings.CutPrefix(line, "# ")
	if !found {
		return "", "", "", false
	}
	kind, body, found = strings.Cut(body, " ")
	if !found || (kind != "HELP" && kind != "TYPE") {
		return "", "", "", false
	}
	name, rest, _ = strings.Cut(body, " ")
	return kind, name, rest, true
}

// parseSampleLine parses `name{k="v",...} value [timestamp]`, appending
// the labels to dst.
func parseSampleLine(line string, dst []Label) (name string, labels []Label, value string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	name = line[:i]
	if !nameOK(name) {
		return "", nil, "", fmt.Errorf("invalid sample name %q", name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, "", fmt.Errorf("unterminated label set")
		}
		labels, err = parseLabels(dst, rest[1:end])
		if err != nil {
			return "", nil, "", err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("want `value [timestamp]` after name, got %q", strings.TrimSpace(rest))
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, fields[0], nil
}

// parseLabels parses the interior of a label set, appending to out. A
// value without escapes is a substring of s.
func parseLabels(out []Label, s string) ([]Label, error) {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s)
		}
		key := s[:eq]
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder // the value once an escape is seen; until then s[:i]
		escaped, closed, value := false, false, ""
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %q: trailing backslash", key)
				}
				if !escaped {
					val.WriteString(s[:i])
					escaped = true
				}
				i++
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %q: bad escape \\%c", key, s[i])
				}
				continue
			}
			if c == '"' {
				if value = s[:i]; escaped {
					value = val.String()
				}
				s = s[i+1:]
				closed = true
				break
			}
			if escaped {
				val.WriteByte(c)
			}
		}
		if !closed {
			return nil, fmt.Errorf("label %q: unterminated value", key)
		}
		out = append(out, Label{Key: key, Value: value})
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}
