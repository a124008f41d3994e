// Package stream is the incremental (operator-side, always-on) face of
// the Domino detector: an Analyzer that consumes trace records one at
// a time (Push) or a decoded columnar block at a time (PushBlock, to
// the same effect) while the session is still running, slides the
// detection window with O(window) buffered state instead of the whole
// trace, and announces each window evaluation and each event run as it
// opens and closes on obs.Hooks. The report is the other way out: Close
// returns it, and Snapshot returns it mid-session.
//
// For the same records, a stream Analyzer's final report is identical
// to the batch core.Analyzer.Analyze over the equivalent trace.Set —
// both drive the same incremental engine in internal/core, and the
// differential test in this package pins the equivalence over all four
// Table 1 presets.
//
// Watermark contract: records must arrive in non-decreasing primary-
// timestamp order, up to the configured Lateness slack. A window
// [s, s+W) is evaluated once the watermark (the highest timestamp
// seen) reaches s+W+Lateness, which guarantees no record belonging to
// the window can still be in flight. Records that arrive after their
// window was already evaluated are rejected (or counted and dropped
// with DropLate), never silently folded in — reproducibility beats
// completeness here.
package stream

import (
	"errors"
	"fmt"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/obs"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// Errors reported by Push and Close.
var (
	// ErrNoHeader is returned when a data record precedes the header.
	ErrNoHeader = errors.New("stream: record before header")
	// ErrLateRecord is returned when a record arrives for a window that
	// was already evaluated (input more out-of-order than Lateness).
	ErrLateRecord = errors.New("stream: record arrived after its window closed")
	// ErrClosed is returned by any call after Close.
	ErrClosed = errors.New("stream: analyzer closed")
)

// Config shapes a streaming analyzer's input contract and its report;
// what the analysis finds leaves through the report and SetHooks' hooks.
type Config struct {
	// Lateness is the out-of-order slack: a window is held open until
	// the watermark passes its end by this much. Zero (the default)
	// expects fully time-ordered input, which is what WriteJSONL
	// produces and what a time-merging live collector delivers.
	Lateness sim.Time
	// DropLate counts and discards records older than the slack allows
	// instead of failing the stream.
	DropLate bool
	// DropWindows discards per-window results from the final report,
	// bounding report growth for very long sessions (event runs are
	// always kept).
	DropWindows bool
}

// Stats counts a stream's progress.
type Stats struct {
	// Records is the number of data records accepted.
	Records int
	// LateDropped is the number of records discarded under DropLate.
	LateDropped int
	// Windows is the number of window positions evaluated so far.
	Windows int
	// MaxBuffered is the high-water mark of buffered samples — the
	// O(window) state bound (compare len(trace.Set) for batch).
	MaxBuffered int
	// Watermark is the highest record timestamp seen.
	Watermark sim.Time
}

// Analyzer incrementally analyzes one session's record stream. It is
// not safe for concurrent use; callers multiplexing sessions (e.g.
// internal/node) guard each session's Analyzer with its own lock.
type Analyzer struct {
	core *core.Analyzer
	cfg  Config

	// window/step cache the (immutable) detector geometry: Push is the
	// per-record hot path and must not copy the full DetectorConfig
	// out of the core analyzer on every record.
	window sim.Time
	step   sim.Time

	hdr       *trace.Header
	eval      *core.WindowEvaluator
	inc       *core.Incremental
	nextStart sim.Time
	stats     Stats
	closed    bool
	hooks     obs.Hooks
}

// New returns a streaming analyzer driving the given (immutable,
// shareable) core analyzer. The stream must deliver a header record
// before any data record.
func New(a *core.Analyzer, cfg Config) *Analyzer {
	dc := a.Config()
	return &Analyzer{core: a, cfg: cfg, window: dc.Window, step: dc.Step}
}

// Reset rewinds the analyzer to its pre-header state so it can ingest
// a new session, recycling the window evaluator's series arrays and
// the incremental engine's scratch instead of reallocating them. This
// is the fleet-ingest fast path: internal/node keeps closed analyzers on
// a bounded free-list (its analyzerPool, which unlike a sync.Pool
// survives GC cycles) and Resets them per session, so steady-state
// ingest allocates only the report it returns.
func (s *Analyzer) Reset() {
	s.hdr = nil
	s.nextStart = 0
	s.stats = Stats{}
	s.closed = false
	s.SetHooks(nil)
}

// SetHooks installs observability hooks on the pipeline (nil disables
// them, the default): window evaluations fire here, node/chain run
// transitions in the incremental engine. Hooks installed mid-session
// hear every event from the next one on. Reset clears the hooks with
// the rest of the per-session state so pooled analyzers never leak one
// session's hooks into the next.
func (s *Analyzer) SetHooks(h obs.Hooks) {
	s.hooks = h
	if s.inc != nil {
		s.inc.SetHooks(h)
	}
}

// Header returns the stream's header once it has been pushed.
func (s *Analyzer) Header() (trace.Header, bool) {
	if s.hdr == nil {
		return trace.Header{}, false
	}
	return *s.hdr, true
}

// Stats returns the stream's progress counters.
func (s *Analyzer) Stats() Stats { return s.stats }

// Watermark returns the highest record timestamp seen.
func (s *Analyzer) Watermark() sim.Time { return s.stats.Watermark }

// emittedEnd returns the end of the newest evaluated window — the
// horizon a new record must not fall behind.
func (s *Analyzer) emittedEnd() sim.Time {
	if s.stats.Windows == 0 {
		return 0
	}
	return s.nextStart - s.step + s.window
}

// Push feeds one record into the stream, evaluating every window the
// advancing watermark allows before returning.
func (s *Analyzer) Push(rec trace.Record) error {
	if s.closed {
		return ErrClosed
	}
	if rec.Header != nil {
		return s.pushHeader(rec.Header)
	}
	if s.hdr == nil {
		return ErrNoHeader
	}
	t, ok := rec.Time()
	if !ok {
		return errors.New("stream: record without timestamp")
	}
	if ok, err := s.admit(t); !ok {
		return err
	}
	s.eval.Observe(rec)
	s.stats.Records++
	s.noteBuffered()
	if t > s.stats.Watermark {
		s.stats.Watermark = t
	}
	s.advance(false)
	return nil
}

func (s *Analyzer) pushHeader(hdr *trace.Header) error {
	if s.hdr != nil {
		return errors.New("stream: duplicate header")
	}
	if hdr.Duration < 0 {
		return errors.New("stream: negative duration in header")
	}
	h := *hdr
	s.hdr = &h
	if s.eval != nil {
		s.eval.Reset(h.HasGNBLog)
		s.inc.Reset(h.CellName)
	} else {
		s.eval = s.core.NewWindowEvaluator(h.HasGNBLog)
		s.inc = s.core.NewIncremental(h.CellName)
	}
	s.inc.SetScenario(h.Scenario)
	s.inc.SetHooks(s.hooks)
	if s.cfg.DropWindows {
		s.inc.SetKeepWindows(false)
	}
	return nil
}

// admit applies the watermark contract to a data record's timestamp:
// it reports whether the record is to be observed, and for one that is
// not, the error that fails the stream (nil when DropLate counted and
// discarded it).
func (s *Analyzer) admit(t sim.Time) (bool, error) {
	if t < 0 {
		return false, fmt.Errorf("stream: negative record timestamp %v", t)
	}
	if t < s.emittedEnd() {
		if s.cfg.DropLate {
			s.stats.LateDropped++
			return false, nil
		}
		return false, fmt.Errorf("%w: t=%v, already evaluated through %v (regenerate type-grouped legacy traces with the current writer, or raise Lateness)",
			ErrLateRecord, t, s.emittedEnd())
	}
	return true, nil
}

// noteBuffered folds the evaluator's current sample count into
// Stats.MaxBuffered.
func (s *Analyzer) noteBuffered() {
	if b := s.eval.Buffered(); b > s.stats.MaxBuffered {
		s.stats.MaxBuffered = b
	}
}

// PushBatch feeds a batch of records, stopping at the first error.
func (s *Analyzer) PushBatch(recs []trace.Record) error {
	for _, rec := range recs {
		if err := s.Push(rec); err != nil {
			return err
		}
	}
	return nil
}

// PushBlock feeds the records a decoded columnar block stands for,
// from the block's record skip on (a resuming upload replays a prefix
// the session already has), with exactly the effect of Pushing each of
// them: the same report, Stats and hook sequence, and on a bad record
// the same error. It returns how many records past skip it consumed
// (observed, or dropped under DropLate) before stopping — the index,
// past skip, of the record that failed.
//
// No Record is built. One walk over the tags takes each record's
// timestamp from its series' time column, applies Push's checks, and
// cuts the block into runs that end at the record whose arrival lets a
// window close. A run goes to the window evaluator as one row range per
// series, and only then is MaxBuffered sampled and advance called: the
// sample count only grows between evictions, so its peaks are run ends.
func (s *Analyzer) PushBlock(b *trace.Block, skip int) (int, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if skip >= b.Len() {
		return 0, nil
	}
	if b.Header != nil {
		if err := s.pushHeader(b.Header); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if s.hdr == nil {
		return 0, ErrNoHeader
	}
	times := b.Times()
	var lo, hi [trace.NumSeries]int // the open run's rows, per series
	for _, tag := range b.Tags[:skip] {
		hi[tag]++
	}
	lo = hi
	ordered := true
	// flush hands the open run to the evaluator and starts the next.
	flush := func() {
		s.eval.ObserveBlock(b, &lo, &hi, ordered)
		lo, ordered = hi, true
		s.noteBuffered()
	}
	closeAt := s.nextClose()
	for i, tag := range b.Tags[skip:] {
		t := times[tag][hi[tag]]
		if ok, err := s.admit(t); !ok {
			flush()
			if err != nil {
				return i, err
			}
			hi[tag]++ // dropped late: the next run starts past it
			lo = hi
			continue
		}
		hi[tag]++
		s.stats.Records++
		if t < s.stats.Watermark {
			ordered = false
		} else {
			s.stats.Watermark = t
		}
		if t >= closeAt {
			flush()
			s.advance(false)
			closeAt = s.nextClose()
		}
	}
	flush()
	return len(b.Tags) - skip, nil
}

// lastStart returns the start of the final window position: fixed by
// the header duration, and for an open-ended stream unbounded until
// Close (flush) pins it to the watermark.
func (s *Analyzer) lastStart(flush bool) sim.Time {
	switch {
	case s.hdr.Duration > 0:
		return s.hdr.Duration - s.window
	case flush:
		return s.stats.Watermark - s.window
	}
	return sim.MaxTime - s.window
}

// nextClose returns the watermark at which the next window position
// can be evaluated, sim.MaxTime when none remains before Close.
func (s *Analyzer) nextClose() sim.Time {
	if s.nextStart > s.lastStart(false) {
		return sim.MaxTime
	}
	return s.nextStart + s.window + s.cfg.Lateness
}

// advance evaluates every window position that is safe to close. With
// flush set (Close), remaining windows are evaluated regardless of the
// watermark — no further records can arrive.
func (s *Analyzer) advance(flush bool) {
	lastStart := s.lastStart(flush)
	for s.nextStart <= lastStart {
		if !flush && s.stats.Watermark < s.nextClose() {
			return
		}
		s.eval.EvictBefore(s.nextStart)
		s.inc.Step(s.eval.Eval(s.nextStart))
		if s.hooks != nil {
			s.hooks.WindowEvaluated(int64(s.nextStart), int64(s.nextStart+s.window))
		}
		s.stats.Windows++
		s.nextStart += s.step
	}
}

// Snapshot returns a live report of the session so far, with open runs
// treated as closed at the watermark. It returns nil before the header
// has arrived (including on a Reset analyzer whose recycled engine is
// waiting for its next session's header).
func (s *Analyzer) Snapshot() *core.Report {
	if s.hdr == nil || s.inc == nil {
		return nil
	}
	asOf := s.stats.Watermark
	if d := s.hdr.Duration; d > 0 && d < asOf {
		asOf = d
	}
	return s.inc.Snapshot(asOf)
}

// Close flushes every remaining window (using the header duration, or
// the watermark for open-ended streams), closes all open event runs,
// and returns the final report. The analyzer is unusable afterwards.
func (s *Analyzer) Close() (*core.Report, error) {
	if s.closed {
		return nil, ErrClosed
	}
	s.closed = true
	if s.hdr == nil {
		return nil, errors.New("stream: stream ended before a header record")
	}
	s.advance(true)
	duration := s.hdr.Duration
	if duration == 0 {
		duration = s.stats.Watermark
	}
	return s.inc.Finish(duration), nil
}
