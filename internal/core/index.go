package core

import (
	"slices"
	"sort"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// indexedTrace holds a trace as binary-searchable per-source series so
// window evaluation is O(window) instead of O(trace). It is built in
// one shot from a full Set (batch analysis) or grown a run of block rows
// (or one record) at a time and pruned from the front (streaming
// analysis) — evalWindow works identically on both because it only ever
// reads the [start, end) slice of each series.
//
// Alongside the raw series it maintains rolling aggregates so that
// evaluating the next window position costs O(samples-in-step) for the
// count/sum/extrema-shaped event conditions instead of re-scanning the
// full window:
//
//   - cumulative count/sum arrays parallel to each series (window
//     aggregate = two array reads after the binary search), extended once
//     per run by the one pass that also repairs them after a late sample;
//   - monotonic min/max deques for the argmax-before-argmin conditions
//     (events 1–2, 13), fed by per-series cursors as windows advance;
//   - per-time-bucket caches for the bin-shaped conditions (events 14
//     and 16): a sum per rate bin, a count per MCS value per MCS group,
//     from which a completed group's median is read once.
//
// The cursor-fed structures assume evalWindow is called with
// non-decreasing window starts (the only access pattern batch and
// streaming analysis produce).
type indexedTrace struct {
	cfg       DetectorConfig // normalized; ingest-time thresholds
	hasGNBLog bool

	// Media (forward) and RTCP (reverse) delay series, both directions
	// merged, ordered by send time.
	fwdAt    []sim.Time
	fwdDelay []float64 // ms
	revAt    []sim.Time
	revDelay []float64

	// Cumulative count of delay samples above cfg.DelayUpMs.
	fwdCumHigh []int32
	revCumHigh []int32

	// Per-direction app send rate accounting: media bytes by send time.
	appAt    [2][]sim.Time
	appBytes [2][]int

	// Per-direction DCI-derived series ordered by time.
	dciAt    [2][]sim.Time
	dciOwn   [2][]int   // own-UE PRBs
	dciOther [2][]int   // other-UE PRBs
	dciMCS   [2][]uint8 // saturated to 0–31, see mcsIndex
	dciTBS   [2][]int   // bits
	dciHARQ  [2][]bool  // HARQ retx flag
	dciULUse [2][]bool  // own transmission

	// Cumulative DCI aggregates: PRB sums, HARQ-retx and own-use counts.
	dciCumOwn   [2][]int64
	dciCumOther [2][]int64
	dciCumHARQ  [2][]int32
	dciCumULUse [2][]int32

	// RLC retx events (gNB log), per direction.
	rlcAt [2][]sim.Time

	// RNTI change times.
	rrcAt []sim.Time

	// Stats per side ordered by time, and per side and flag (statsFlags)
	// the cumulative count of samples raising it.
	statsAt  [2][]sim.Time
	stats    [2][]trace.WebRTCStatsRecord
	statsCum [2][numStatsFlags][]int32

	// groups declares every column above once, in the series group it
	// moves with (see newIndex).
	groups [numGroups]seriesGroup

	roll rollState

	dciRows [2][]int32 // fillDCI's scratch: a run's rows, per direction
}

// The series groups, as indices into indexedTrace.groups: a group per
// direction (di) or side (si) takes two consecutive slots.
const (
	grpFwd = iota
	grpRev
	grpRRC
	grpApp                 // + di
	grpDCI    = grpApp + 2 // + di
	grpRLC    = grpDCI + 2 // + di
	grpStats  = grpRLC + 2 // + si
	numGroups = grpStats + 2
)

// A seriesGroup is one time column and every column that moves with it.
// It serves the bookkeeping that touches every column alike — reset,
// eviction and the insertion sort of a late sample — while the row
// writes and the window reads use the typed columns directly.
type seriesGroup struct {
	at     *[]sim.Time
	values []column // one value per sample of at, swapped with it
	cums   []column // cumulative arrays over the values, rebuilt by the settles
	// head is the index of the first live sample (see evictBefore).
	// Queries binary-search [start, end) and cumulative reads subtract
	// cum[lo-1], so neither looks at it.
	head   int
	cursor *int // the rolling consume cursor into the group, if any
}

// column is a series column as its seriesGroup sees it.
type column interface {
	truncate()
	shift(lo int) // drop the first lo entries
	swap(i, j int)
}

// col adapts a value column; holding only the field's address, it
// fits an interface value without an allocation.
type col[T any] struct{ s *[]T }

func values[T any](s *[]T) column { return col[T]{s} }

func (c col[T]) truncate()     { *c.s = (*c.s)[:0] }
func (c col[T]) shift(lo int)  { *c.s = (*c.s)[:copy(*c.s, (*c.s)[lo:])] }
func (c col[T]) swap(i, j int) { (*c.s)[i], (*c.s)[j] = (*c.s)[j], (*c.s)[i] }

// cumCol adapts a cumulative column, which a shift rebases.
type cumCol[T int32 | int64] struct{ col[T] }

func cums[T int32 | int64](s *[]T) column { return cumCol[T]{col[T]{s}} }

func (c cumCol[T]) shift(lo int) { *c.s = shiftCum(*c.s, lo) }

func sideIdx(local bool) int {
	if local {
		return 0
	}
	return 1
}

func dirIdx(d netem.Direction) int {
	if d == netem.Uplink {
		return 0
	}
	return 1
}

// newIndex returns an empty index for the given (normalized) detector
// configuration, its columns declared in their series groups.
func newIndex(cfg DetectorConfig, hasGNBLog bool) *indexedTrace {
	ix := &indexedTrace{cfg: cfg, hasGNBLog: hasGNBLog}
	ix.roll.init(cfg)
	g, r := &ix.groups, &ix.roll
	g[grpFwd] = seriesGroup{at: &ix.fwdAt, values: []column{values(&ix.fwdDelay)}, cums: []column{cums(&ix.fwdCumHigh)}}
	g[grpRev] = seriesGroup{at: &ix.revAt, values: []column{values(&ix.revDelay)}, cums: []column{cums(&ix.revCumHigh)}}
	g[grpRRC] = seriesGroup{at: &ix.rrcAt}
	for d := 0; d < 2; d++ {
		g[grpApp+d] = seriesGroup{at: &ix.appAt[d], values: []column{values(&ix.appBytes[d])}, cursor: &r.appCur[d]}
		g[grpDCI+d] = seriesGroup{at: &ix.dciAt[d], cursor: &r.dciCur[d],
			values: []column{values(&ix.dciOwn[d]), values(&ix.dciOther[d]), values(&ix.dciMCS[d]),
				values(&ix.dciTBS[d]), values(&ix.dciHARQ[d]), values(&ix.dciULUse[d])},
			cums: []column{cums(&ix.dciCumOwn[d]), cums(&ix.dciCumOther[d]), cums(&ix.dciCumHARQ[d]), cums(&ix.dciCumULUse[d])}}
		g[grpRLC+d] = seriesGroup{at: &ix.rlcAt[d]}
		g[grpStats+d] = seriesGroup{at: &ix.statsAt[d], values: []column{values(&ix.stats[d])}, cums: make([]column, numStatsFlags), cursor: &r.statsCur[d]}
		for f := range ix.statsCum[d] {
			g[grpStats+d].cums[f] = cums(&ix.statsCum[d][f])
		}
	}
	return ix
}

// newIndexedTrace builds the index of a whole set for the given
// (normalized) detector configuration. The set must be sorted.
func newIndexedTrace(set *trace.Set, cfg DetectorConfig) *indexedTrace {
	ix := newIndex(cfg, set.HasGNBLog)
	for i := range set.Packets {
		ix.addPacket(&set.Packets[i], true)
	}
	for i := range set.DCI {
		ix.addDCI(&set.DCI[i], true)
	}
	// Batch construction appends DCI-flagged and gNB-logged RLC retx a
	// whole trace after the other, so the merged series takes a full
	// sort, not the insertion of a run into a sorted tail.
	for i := range set.GNBLogs {
		ix.addGNB(&set.GNBLogs[i], true)
	}
	for i := range ix.rlcAt {
		sort.Slice(ix.rlcAt[i], func(a, b int) bool { return ix.rlcAt[i][a] < ix.rlcAt[i][b] })
	}
	for i := range set.RRC {
		ix.rrcAt = append(ix.rrcAt, set.RRC[i].At)
	}
	ix.fillStats(set.Stats, true)
	return ix
}

// reset empties every series and rolling structure in place, keeping
// the allocated capacity — the pooling path for fleet-scale reuse.
func (ix *indexedTrace) reset(hasGNBLog bool) {
	ix.hasGNBLog = hasGNBLog
	for i := range ix.groups {
		g := &ix.groups[i]
		*g.at, g.head = (*g.at)[:0], 0
		for _, c := range g.values {
			c.truncate()
		}
		for _, c := range g.cums {
			c.truncate()
		}
	}
	ix.roll.reset()
}

// A fill appends rows [lo, hi) of one series of a block — a run — to the
// index: it counts the run's rows per series group, grows each of the
// group's value columns once and fills them by index. An add* method
// appends one record's samples. Both then settle each group they
// touched from its old length on: the cumulative arrays are grown once
// and extended in one pass that carries the sums in locals. ordered
// promises that no new sample is earlier than its group's tail or than
// the one before it; without it the new tail is insertion-sorted into
// place first and the cumulative arrays are redone from the lowest
// position that moved.
//
// An add* method is not a fill of a one-row run: Observe and batch
// construction have records, not columns, and a run's set-up around one
// row made BenchmarkWindowEval 73 % slower (CHANGES.md, PR 21).

func (ix *indexedTrace) addPacket(p *trace.PacketRecord, ordered bool) {
	d := (p.Arrived - p.SentAt).Milliseconds()
	switch p.Kind {
	case netem.KindCross:
	case netem.KindRTCP:
		rev := len(ix.revAt)
		ix.revAt, ix.revDelay = append(ix.revAt, p.SentAt), append(ix.revDelay, d)
		ix.revCumHigh = ix.settleDelay(grpRev, ix.revDelay, ix.revCumHigh, rev, ordered)
	default:
		di := dirIdx(p.Dir)
		fwd, app := len(ix.fwdAt), len(ix.appAt[di])
		ix.fwdAt, ix.fwdDelay = append(ix.fwdAt, p.SentAt), append(ix.fwdDelay, d)
		ix.appAt[di], ix.appBytes[di] = append(ix.appAt[di], p.SentAt), append(ix.appBytes[di], p.Size)
		ix.fwdCumHigh = ix.settleDelay(grpFwd, ix.fwdDelay, ix.fwdCumHigh, fwd, ordered)
		if !ordered {
			ix.groups[grpApp+di].sortTail(app)
		}
	}
}

func (ix *indexedTrace) fillPackets(p *trace.PacketColumns, lo, hi int, ordered bool) {
	var nFwd, nRev int
	var nApp [2]int
	for i := lo; i < hi; i++ {
		switch p.Kind[i] {
		case netem.KindCross:
		case netem.KindRTCP:
			nRev++
		default:
			nFwd++
			nApp[dirIdx(p.Dir[i])]++
		}
	}
	fwd, rev := len(ix.fwdAt), len(ix.revAt)
	app := [2]int{len(ix.appAt[0]), len(ix.appAt[1])}
	ix.fwdAt, ix.fwdDelay = grow(ix.fwdAt, nFwd), grow(ix.fwdDelay, nFwd)
	ix.revAt, ix.revDelay = grow(ix.revAt, nRev), grow(ix.revDelay, nRev)
	for di, n := range nApp {
		ix.appAt[di], ix.appBytes[di] = grow(ix.appAt[di], n), grow(ix.appBytes[di], n)
	}
	fwdAt, fwdDelay, revAt, revDelay := ix.fwdAt[fwd:], ix.fwdDelay[fwd:], ix.revAt[rev:], ix.revDelay[rev:]
	appAt := [2][]sim.Time{ix.appAt[0][app[0]:], ix.appAt[1][app[1]:]}
	appBytes := [2][]int{ix.appBytes[0][app[0]:], ix.appBytes[1][app[1]:]}
	var f, r int
	var a [2]int
	for i := lo; i < hi; i++ {
		sent := p.SentAt[i]
		d := (p.Arrived[i] - sent).Milliseconds()
		switch p.Kind[i] {
		case netem.KindCross:
		case netem.KindRTCP:
			revAt[r], revDelay[r] = sent, d
			r++
		default:
			fwdAt[f], fwdDelay[f] = sent, d
			f++
			di := dirIdx(p.Dir[i])
			appAt[di][a[di]], appBytes[di][a[di]] = sent, p.Size[i]
			a[di]++
		}
	}
	ix.fwdCumHigh = ix.settleDelay(grpFwd, ix.fwdDelay, ix.fwdCumHigh, fwd, ordered)
	ix.revCumHigh = ix.settleDelay(grpRev, ix.revDelay, ix.revCumHigh, rev, ordered)
	if !ordered {
		ix.groups[grpApp].sortTail(app[0])
		ix.groups[grpApp+1].sortTail(app[1])
	}
}

// settleDelay settles group g's delay series, which was base long
// before the new samples, and returns its cumulative array. (A send-rate
// series has no cumulative array: settling it is its sortTail.)
func (ix *indexedTrace) settleDelay(g int, delay []float64, cumHigh []int32, base int, ordered bool) []int32 {
	cumHigh = grow(cumHigh, len(delay)-base)
	if !ordered {
		base = ix.groups[g].sortTail(base)
	}
	ix.rebuildDelayCum(delay, cumHigh, base)
	return cumHigh
}

// mcsIndex saturates a DCI row's MCS to the 5-bit range event 16's
// histograms count. Saturation is monotone, so a group's median and the
// window's 90th percentile over medians come out as the saturated true
// values, and every comparison with a threshold in (0, 31] — the range
// DetectorConfig admits — is the one the raw values give.
func mcsIndex(mcs int) uint8 { return uint8(min(max(mcs, 0), mcsLevels-1)) }

func (ix *indexedTrace) addDCI(r *trace.DCIRecord, ordered bool) {
	di := dirIdx(r.Dir)
	base, rlc := len(ix.dciAt[di]), len(ix.rlcAt[di])
	tbs := r.TBSBits
	if r.OwnPRB <= 0 {
		tbs = 0
	}
	ix.dciAt[di], ix.dciOwn[di], ix.dciOther[di] = append(ix.dciAt[di], r.At), append(ix.dciOwn[di], r.OwnPRB), append(ix.dciOther[di], r.OtherPRB)
	ix.dciMCS[di], ix.dciTBS[di] = append(ix.dciMCS[di], mcsIndex(r.MCS)), append(ix.dciTBS[di], tbs)
	ix.dciHARQ[di], ix.dciULUse[di] = append(ix.dciHARQ[di], r.HARQRetx), append(ix.dciULUse[di], r.OwnPRB > 0)
	if r.RLCRetx && ix.hasGNBLog {
		ix.rlcAt[di] = append(ix.rlcAt[di], r.At)
	}
	ix.settleDCI(di, base, rlc, ordered)
}

func (ix *indexedTrace) fillDCI(d *trace.DCIColumns, lo, hi int, ordered bool) {
	// Split the run's rows by direction with no branch on it — a call's
	// directions alternate too irregularly to predict: every row goes
	// into the next slot of both lists, and only its own list moves on.
	up, down := grow(ix.dciRows[0][:0], hi-lo), grow(ix.dciRows[1][:0], hi-lo)
	ix.dciRows = [2][]int32{up, down}
	nUp, nDown := 0, 0
	for i := lo; i < hi; i++ {
		up[nUp], down[nDown] = int32(i), int32(i)
		di := dirIdx(d.Dir[i])
		nUp, nDown = nUp+1-di, nDown+di
	}
	for di, rows := range [2][]int32{up[:nUp], down[:nDown]} {
		k := len(rows)
		if k == 0 {
			continue
		}
		base, rlc := len(ix.dciAt[di]), len(ix.rlcAt[di])
		ix.dciAt[di], ix.dciOwn[di], ix.dciOther[di] = grow(ix.dciAt[di], k), grow(ix.dciOwn[di], k), grow(ix.dciOther[di], k)
		ix.dciMCS[di], ix.dciTBS[di] = grow(ix.dciMCS[di], k), grow(ix.dciTBS[di], k)
		ix.dciHARQ[di], ix.dciULUse[di] = grow(ix.dciHARQ[di], k), grow(ix.dciULUse[di], k)
		at, own, other := ix.dciAt[di][base:][:k], ix.dciOwn[di][base:][:k], ix.dciOther[di][base:][:k]
		mcs, tbs := ix.dciMCS[di][base:][:k], ix.dciTBS[di][base:][:k]
		harq, use := ix.dciHARQ[di][base:][:k], ix.dciULUse[di][base:][:k]
		for j, i := range rows {
			o, t, f := d.OwnPRB[i], d.TBSBits[i], d.Flags[i]
			if o <= 0 {
				t = 0
			}
			at[j], own[j], other[j], mcs[j], tbs[j] = d.At[i], o, d.OtherPRB[i], mcsIndex(d.MCS[i]), t
			harq[j], use[j] = f&trace.DCIFlagHARQRetx != 0, o > 0
			// The DCI RLC-retx annotation is gNB-internal knowledge: only
			// private cells with base-station logs expose it (the paper's
			// commercial cells detect no RLC retx for exactly this reason).
			if f&trace.DCIFlagRLCRetx != 0 && ix.hasGNBLog {
				ix.rlcAt[di] = append(ix.rlcAt[di], d.At[i])
			}
		}
		ix.settleDCI(di, base, rlc, ordered)
	}
}

// settleDCI settles direction di's DCI-derived series, which were base
// (rlcAt: rlc) long before the new samples.
func (ix *indexedTrace) settleDCI(di, base, rlc int, ordered bool) {
	n := len(ix.dciAt[di]) - base
	ix.dciCumOwn[di], ix.dciCumOther[di] = grow(ix.dciCumOwn[di], n), grow(ix.dciCumOther[di], n)
	ix.dciCumHARQ[di], ix.dciCumULUse[di] = grow(ix.dciCumHARQ[di], n), grow(ix.dciCumULUse[di], n)
	if !ordered {
		ix.groups[grpRLC+di].sortTail(rlc)
		base = ix.groups[grpDCI+di].sortTail(base)
	}
	ix.rebuildDCICums(di, base)
}

func (ix *indexedTrace) addGNB(g *trace.GNBLogRecord, ordered bool) {
	if g.Kind != trace.GNBLogRLCRetx {
		return
	}
	di := dirIdx(g.Dir)
	ix.rlcAt[di] = append(ix.rlcAt[di], g.At)
	if !ordered {
		ix.groups[grpRLC+di].sortTail(len(ix.rlcAt[di]) - 1)
	}
}

// fillGNB sorts its rows into rlcAt whatever the run's order: the run's
// DCI rows feed that series too, one series after the other rather than
// merged.
func (ix *indexedTrace) fillGNB(g *trace.GNBColumns, lo, hi int) {
	base := [2]int{len(ix.rlcAt[0]), len(ix.rlcAt[1])}
	for i := lo; i < hi; i++ {
		if g.Kind[i] == trace.GNBLogRLCRetx {
			di := dirIdx(g.Dir[i])
			ix.rlcAt[di] = append(ix.rlcAt[di], g.At[i])
		}
	}
	for di, from := range base {
		ix.groups[grpRLC+di].sortTail(from)
	}
}

func (ix *indexedTrace) fillStats(recs []trace.WebRTCStatsRecord, ordered bool) {
	base := [2]int{len(ix.stats[0]), len(ix.stats[1])}
	for i := range recs {
		si := sideIdx(recs[i].Local)
		ix.statsAt[si], ix.stats[si] = append(ix.statsAt[si], recs[i].At), append(ix.stats[si], recs[i])
	}
	for si, from := range base {
		n := len(ix.stats[si]) - from
		for f, c := range ix.statsCum[si] {
			ix.statsCum[si][f] = grow(c, n)
		}
		if !ordered {
			from = ix.groups[grpStats+si].sortTail(from)
		}
		ix.rebuildStatsCums(si, from)
	}
}

// observeBlock implements WindowEvaluator.ObserveBlock.
func (ix *indexedTrace) observeBlock(b *trace.Block, lo, hi *[trace.NumSeries]int, ordered bool) {
	ix.fillDCI(&b.DCI, lo[trace.SeriesDCI], hi[trace.SeriesDCI], ordered)
	ix.fillGNB(&b.GNB, lo[trace.SeriesGNB], hi[trace.SeriesGNB])
	ix.fillPackets(&b.Pkt, lo[trace.SeriesPkt], hi[trace.SeriesPkt], ordered)
	ix.fillStats(b.Stats[lo[trace.SeriesStats]:hi[trace.SeriesStats]], ordered)
	rrc := len(ix.rrcAt)
	ix.rrcAt = append(ix.rrcAt, b.RRC.At[lo[trace.SeriesRRC]:hi[trace.SeriesRRC]]...)
	ix.groups[grpRRC].sortTail(rrc)
}

// grow extends s by n elements, which the caller sets.
func grow[S ~[]E, E any](s S, n int) S {
	return slices.Grow(s, n)[:len(s)+n]
}

// The stats flags: per-sample (or, marked pair, adjacent-pair)
// conditions whose cumulative counts statsCum holds.
const (
	flagResDown    = iota // pair: outbound height decreased
	flagDrain             // jitter buffer at or below drain threshold
	flagOveruse           // GCC overuse state
	flagCwndFull          // outstanding exceeds congestion window
	flagPushNeq           // pushback below target by the configured fraction
	flagTargetDrop        // pair: relative target-bitrate drop
	flagPushDrop          // pair: relative pushback-rate drop
	numStatsFlags
)

// statsFlags returns the flags record r raises with (possibly nil)
// predecessor p, bit f for flag f; pair conditions are attributed to
// the later record.
func (ix *indexedTrace) statsFlags(r, p *trace.WebRTCStatsRecord) uint8 {
	cfg := &ix.cfg
	var m uint8
	set := func(f int, on bool) {
		if on {
			m |= 1 << f
		}
	}
	set(flagResDown, p != nil && r.OutboundHeight < p.OutboundHeight)
	set(flagDrain, r.VideoJBDelayMs <= cfg.JBDrainMs)
	set(flagOveruse, r.GCCNetState == trace.GCCOveruse)
	set(flagCwndFull, r.CongestionWindow > 0 && r.OutstandingBytes > r.CongestionWindow)
	set(flagPushNeq, r.PushbackRateBps < r.TargetBitrateBps*(1-cfg.PushbackNeqFrac))
	set(flagTargetDrop, p != nil && p.TargetBitrateBps > 0 && r.TargetBitrateBps < p.TargetBitrateBps*(1-cfg.RelDrop))
	set(flagPushDrop, p != nil && p.PushbackRateBps > 0 && r.PushbackRateBps < p.PushbackRateBps*(1-cfg.RelDrop))
	return m
}

// delayHigh is the event 11–12 threshold flag.
func (ix *indexedTrace) delayHigh(d float64) bool { return d > ix.cfg.DelayUpMs }

// cum returns the aggregate of a cumulative array over series indices
// [lo, hi).
func cum[T int32 | int64](c []T, lo, hi int) T {
	if hi <= lo {
		return 0
	}
	v := c[hi-1]
	if lo > 0 {
		v -= c[lo-1]
	}
	return v
}

// evictBefore retires every sample with timestamp < cut. Retiring only
// advances the series group's head; the group's columns are compacted
// in place (cumulative arrays rebased, the rolling cursor shifted
// alongside) once the dead prefix is at least as long as the live part,
// so the backing arrays stay within twice the window high-water mark
// instead of growing with the trace.
func (ix *indexedTrace) evictBefore(cut sim.Time) {
	for i := range ix.groups {
		g := &ix.groups[i]
		lo := dead(*g.at, &g.head, cut)
		if lo == 0 {
			continue
		}
		col[sim.Time]{g.at}.shift(lo)
		for _, c := range g.values {
			c.shift(lo)
		}
		for _, c := range g.cums {
			c.shift(lo)
		}
		// Every evicted sample was already consumed (eviction cuts below
		// the last evaluated window end), so the cursor never goes
		// negative on the analysis paths; the clamp keeps a stray early
		// eviction harmless.
		if g.cursor != nil {
			*g.cursor = max(*g.cursor-lo, 0)
		}
	}
}

// dead advances *head past the samples of at older than cut and
// returns how many leading samples the caller compacts away now: the
// whole dead prefix once it has caught up with the live part (with
// *head back at 0), else none.
func dead(at []sim.Time, head *int, cut sim.Time) int {
	*head += cutIndex(at[*head:], cut)
	lo := *head
	if lo < len(at)-lo {
		return 0
	}
	*head = 0
	return lo
}

// cutIndex returns the number of leading samples with timestamp < cut.
func cutIndex(at []sim.Time, cut sim.Time) int {
	return sort.Search(len(at), func(i int) bool { return at[i] >= cut })
}

// shiftCum drops the first lo > 0 entries of a cumulative array,
// rebasing the remainder so c[i] again aggregates from the new first
// sample. The flag of a former pair condition at the new index 0 may
// reference an evicted predecessor; window queries only ever read pairs
// from index lo+1 on, so the stale contribution cancels out of every
// range.
func shiftCum[T int32 | int64](c []T, lo int) []T {
	base := c[lo-1]
	c = c[:copy(c, c[lo:])]
	for i := range c {
		c[i] -= base
	}
	return c
}

// sortTail insertion-sorts into place the samples appended to the
// group's time column since it was base long, moving the value columns
// alongside, and returns the lowest position that changed — base when
// they arrived in order, which costs one comparison each. The walk is
// O(displacement) per sample, which a streaming caller bounds by its
// lateness slack.
func (g *seriesGroup) sortTail(base int) int {
	at, low := *g.at, base
	for n := max(base, 1); n < len(at); n++ {
		i := n
		for ; i > 0 && at[i] < at[i-1]; i-- {
			at[i], at[i-1] = at[i-1], at[i]
			for _, c := range g.values {
				c.swap(i, i-1)
			}
		}
		low = min(low, i)
	}
	return low
}

// rebuildDelayCum recomputes a delay threshold-count array from pos on.
func (ix *indexedTrace) rebuildDelayCum(delay []float64, cumHigh []int32, pos int) {
	var prev int32
	if pos > 0 {
		prev = cumHigh[pos-1]
	}
	for i := pos; i < len(delay); i++ {
		if ix.delayHigh(delay[i]) {
			prev++
		}
		cumHigh[i] = prev
	}
}

// rebuildDCICums recomputes direction di's cumulative arrays from pos.
func (ix *indexedTrace) rebuildDCICums(di, pos int) {
	own, other, harq, use := ix.dciOwn[di], ix.dciOther[di], ix.dciHARQ[di], ix.dciULUse[di]
	cumOwn, cumOther, cumHARQ, cumUse := ix.dciCumOwn[di], ix.dciCumOther[di], ix.dciCumHARQ[di], ix.dciCumULUse[di]
	var pOwn, pOther int64
	var pHARQ, pUse int32
	if pos > 0 {
		pOwn, pOther, pHARQ, pUse = cumOwn[pos-1], cumOther[pos-1], cumHARQ[pos-1], cumUse[pos-1]
	}
	for i := pos; i < len(own); i++ {
		pOwn += int64(own[i])
		pOther += int64(other[i])
		if harq[i] {
			pHARQ++
		}
		if use[i] {
			pUse++
		}
		cumOwn[i], cumOther[i], cumHARQ[i], cumUse[i] = pOwn, pOther, pHARQ, pUse
	}
}

// rebuildStatsCums recomputes side si's cumulative flag counts from
// pos on (an insertion at pos also changes the pair flag at pos+1).
func (ix *indexedTrace) rebuildStatsCums(si, pos int) {
	c, recs := &ix.statsCum[si], ix.stats[si]
	var run [numStatsFlags]int32
	if pos > 0 {
		for f := range run {
			run[f] = c[f][pos-1]
		}
	}
	for i := pos; i < len(recs); i++ {
		var p *trace.WebRTCStatsRecord
		if i > 0 {
			p = &recs[i-1]
		}
		m := ix.statsFlags(&recs[i], p)
		for f := range run {
			run[f] += int32(m >> f & 1)
			c[f][i] = run[f]
		}
	}
}

// buffered returns the number of samples currently held across all
// series — the streaming analyzer's O(window) state measure. A media
// packet's send-rate sample twins its forward-delay one and is counted
// once. The stream reads it after every record, so it names its groups:
// a walk of the list took nearly twice as long.
func (ix *indexedTrace) buffered() int {
	g := &ix.groups
	n := len(ix.fwdAt) - g[grpFwd].head + len(ix.revAt) - g[grpRev].head + len(ix.rrcAt) - g[grpRRC].head
	for d := range ix.dciAt {
		n += len(ix.dciAt[d]) - g[grpDCI+d].head + len(ix.rlcAt[d]) - g[grpRLC+d].head
	}
	for s := range ix.statsAt {
		n += len(ix.statsAt[s]) - g[grpStats+s].head
	}
	return n
}

// window returns [lo, hi) index bounds of at-values within [start, end).
func window(at []sim.Time, start, end sim.Time) (int, int) {
	lo := sort.Search(len(at), func(i int) bool { return at[i] >= start })
	hi := sort.Search(len(at), func(i int) bool { return at[i] >= end })
	return lo, hi
}
