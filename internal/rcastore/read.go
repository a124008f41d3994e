package rcastore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/domino5g/domino/internal/jsonenc"
	"github.com/domino5g/domino/internal/sim"
)

// This file is the read surface's requests — GET /query and
// /incidents/similar — for both tiers and the offline cmd/rcaquery: a
// node and rcaquery parse a read with ParseRead, resolve its probe with
// Store.Resolve and answer it with Store.Answer; the balancer parses it
// with ParseRead too, so all three refuse a read in the same words.

// The kinds of read. Each but KindSimilar names its answer's rows member.
const (
	KindRecords    = "records"
	KindTopChains  = "top_chains"
	KindCauseRates = "cause_rates"
	KindSimilar    = "similar"
)

// Read is one parsed read.
type Read struct {
	// Kind is one of the Kind constants.
	Kind string
	// Query holds the predicates; a similar read's NotSession is Probe.
	Query Query
	// K cuts top_chains and similar answers (0 = all).
	K int
	// Bucket is cause_rates' bucket width.
	Bucket sim.Time
	// Fired is a similar read's fired= signature, non-nil even when empty
	// (a call that fired nothing). With Probe, a session= probe, it is nil
	// until the caller resolves the session's signature (Store.Fired).
	Fired []string
	Probe string
}

// ParseRead parses a read: path is /query or /incidents/similar, rawQuery
// its query string, refused whole on a malformed escape, and now the clock
// last= counts back from. The error is either tier's 400 message; checks
// run in a fixed order.
func ParseRead(path, rawQuery string, now sim.Time) (Read, error) {
	if path != "/query" && path != "/incidents/similar" {
		return Read{}, fmt.Errorf("unknown read %q (want /query or /incidents/similar)", path)
	}
	p, err := url.ParseQuery(rawQuery)
	if err != nil {
		return Read{}, fmt.Errorf("bad query string: %w", err)
	}
	if path == "/query" {
		return parseQueryRead(p, now)
	}
	return parseSimilarRead(p)
}

// parseQueryRead parses /query: from/to are microsecond timestamps, last
// a duration back from now, and agg an aggregation instead of records.
func parseQueryRead(p url.Values, now sim.Time) (Read, error) {
	r := Read{Kind: KindRecords, Query: Query{
		Cell:     p.Get("cell"),
		Scenario: p.Get("scenario"),
		Session:  p.Get("session"),
		Cause:    p.Get("cause"),
	}}
	if v := p.Get("fired"); v != "" {
		r.Query.FiredAll = strings.Split(v, ",")
	}
	// from before to: with both bad, the 400 always names from.
	for _, bound := range []struct {
		name string
		dst  *sim.Time
	}{{"from", &r.Query.From}, {"to", &r.Query.To}} {
		if v := p.Get(bound.name); v != "" {
			us, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Read{}, fmt.Errorf("bad %s %q: want microseconds since epoch", bound.name, v)
			}
			*bound.dst = sim.Time(us)
		}
	}
	if v := p.Get("last"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return Read{}, fmt.Errorf("bad last %q: want a positive duration like 1h", v)
		}
		r.Query.From = now - sim.Time(d/time.Microsecond)
	}
	var err error
	if r.Query.Limit, err = count(p, "limit", 0); err != nil {
		return Read{}, err
	}
	switch agg := p.Get("agg"); agg {
	case "":
	case KindTopChains:
		r.Kind = agg
		if r.K, err = count(p, "k", 10); err != nil {
			return Read{}, err
		}
	case KindCauseRates:
		r.Kind, r.Bucket = agg, sim.Time(10*time.Minute/time.Microsecond)
		if v := p.Get("bucket"); v != "" {
			d, err := time.ParseDuration(v)
			// The store keeps time in microseconds: a shorter bucket would be 0,
			// which CauseRates reads as "one bucket".
			if err != nil || d < time.Microsecond {
				return Read{}, fmt.Errorf("bad bucket %q: want a duration like 10m, at least the store's 1µs resolution", v)
			}
			r.Bucket = sim.Time(d / time.Microsecond)
		}
	default:
		return Read{}, fmt.Errorf("unknown agg %q (want top_chains or cause_rates)", agg)
	}
	return r, nil
}

// parseSimilarRead parses /incidents/similar. A stored probe session is
// trivially its own nearest incident, so its rows are left out.
func parseSimilarRead(p url.Values) (Read, error) {
	k, err := count(p, "k", 5)
	if err != nil {
		return Read{}, err
	}
	r := Read{Kind: KindSimilar, K: k, Query: Query{Cell: p.Get("cell"), Scenario: p.Get("scenario")}}
	switch fired := p.Get("fired"); {
	case p.Get("session") != "":
		r.Probe = p.Get("session")
		r.Query.NotSession = r.Probe
	case fired != "":
		r.Fired = strings.Split(fired, ",")
	case p.Has("fired"):
		r.Fired = []string{}
	default:
		return Read{}, errors.New("want session=ID or fired=node,node,...")
	}
	return r, nil
}

// count parses the non-negative integer parameter name, def when absent.
func count(p url.Values, name string, def int) (int, error) {
	v := p.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// Resolve sets a session= probe read's Fired to the signature of the
// probe's latest stored row, read off the row's bitset; other reads are
// left as they are. The error, for a session the store does not hold,
// is a node's 404 message.
func (s *Store) Resolve(r *Read) error {
	if r.Probe == "" {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queries.Add(1)
	at, ok := s.latest[r.Probe]
	if !ok {
		return fmt.Errorf("session %q has no stored report", r.Probe)
	}
	r.Fired = s.firedLocked(at.b.row(slices.Index(at.b.order, uint32(at.i))))
	return nil
}

// Answer runs r against the store and appends its answer. A similar read
// is answered about r.Fired, so a Probe read is resolved (Resolve) first.
// A read asked again before the store changes is answered from the memo,
// with the same bytes.
func (s *Store) Answer(dst []byte, r Read) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queries.Add(1)
	if ans, ok := s.memo.lookup(s.gen, &r); ok {
		s.answerHits.Add(1)
		return append(dst, ans...)
	}
	out := s.answerLocked(dst, &r)
	s.memo.keep(s.gen, &r, out[len(dst):])
	return out
}

// answerLocked renders r's answer under the caller's read lock.
func (s *Store) answerLocked(dst []byte, r *Read) []byte {
	switch r.Kind {
	case KindTopChains:
		return AppendTopChainsAnswer(dst, s.topChainsLocked(r.Query, r.K))
	case KindCauseRates:
		return AppendCauseRatesAnswer(dst, s.causeRatesLocked(r.Query, r.Bucket))
	}
	e := answerEnc{jsonenc.Encoder{B: append(dst, '{')}}
	if r.Kind == KindSimilar {
		if e.Array(`"fired": `, len(r.Fired), r.Fired == nil) {
			e.strings(r.Fired, 2)
		}
		e.rows(&s.tables, `"matches": `, s.similarLocked(r.Fired, r.Query, r.K), false, true)
	} else {
		ranked := s.recordsLocked(r.Query)
		e.rows(&s.tables, `"records": `, ranked, len(ranked) == 0, false)
	}
	return e.Close()
}

// The memo's bound: at most memoEntries answers, memoBytes in all. An
// answer that does not fit is served and not kept. The memo empties whole
// when the store's generation moves, so nothing in it is ever evicted.
const memoEntries, memoBytes = 256, 4 << 20

// memo holds the answers to reads at generation gen, keyed by the read.
// A kept answer is never written again, so it is read outside mu.
type memo struct {
	mu      sync.Mutex
	gen     uint64
	bytes   int
	answers map[string][]byte
	key     []byte // the key being looked up, reused
}

// atLocked empties the memo if the store has moved past its generation,
// and leaves r's key in m.key.
func (m *memo) atLocked(gen uint64, r *Read) {
	if m.gen != gen {
		clear(m.answers)
		m.gen, m.bytes = gen, 0
	}
	q := &r.Query
	fired := int64(len(r.Fired))
	if r.Fired == nil {
		fired = -1
	}
	// Counts first, then each string behind its length: two reads share a
	// key only when every field an answer depends on is equal.
	m.key = m.key[:0]
	for _, v := range [...]int64{int64(q.From), int64(q.To), int64(q.Limit), int64(r.K), int64(r.Bucket), int64(len(q.FiredAll)), fired} {
		m.key = binary.AppendVarint(m.key, v)
	}
	for _, list := range [...][]string{{r.Kind, q.Cell, q.Scenario, q.Session, q.NotSession, q.Cause}, q.FiredAll, r.Fired} {
		for _, str := range list {
			m.key = append(binary.AppendUvarint(m.key, uint64(len(str))), str...)
		}
	}
}

func (m *memo) lookup(gen uint64, r *Read) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.atLocked(gen, r)
	ans, ok := m.answers[string(m.key)]
	return ans, ok
}

// keep copies ans, r's answer at gen, into the memo if it fits.
func (m *memo) keep(gen uint64, r *Read, ans []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.atLocked(gen, r)
	if _, ok := m.answers[string(m.key)]; ok || len(m.answers) == memoEntries || m.bytes+len(ans) > memoBytes {
		return
	}
	m.answers[string(m.key)] = slices.Clone(ans)
	m.bytes += len(ans)
}
