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

	// Stats per side ordered by time.
	statsAt  [2][]sim.Time
	stats    [2][]trace.WebRTCStatsRecord
	statsCum [2]statsCums

	// head holds, per series group, the index of the first live sample
	// (see evictBefore). Queries binary-search [start, end) and
	// cumulative reads subtract cum[lo-1], so neither looks at it.
	head seriesHeads

	roll rollState

	dciRows [2][]int32 // fillDCI's scratch: a run's rows, per direction
}

// seriesHeads is one first-live-sample index per series group.
type seriesHeads struct {
	fwd, rev, rrc        int
	app, dci, rlc, stats [2]int
}

// statsCums holds cumulative flag counts over one side's stats series:
// cum[i] counts samples (or adjacent pairs, attributed to the later
// index) matching the condition over series[0..i].
type statsCums struct {
	resDown    []int32 // pair: outbound height decreased
	drain      []int32 // jitter buffer at or below drain threshold
	overuse    []int32 // GCC overuse state
	cwndFull   []int32 // outstanding exceeds congestion window
	pushNeq    []int32 // pushback below target by the configured fraction
	targetDrop []int32 // pair: relative target-bitrate drop
	pushDrop   []int32 // pair: relative pushback-rate drop
}

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

// newIndexedTrace builds the index for the given (normalized) detector
// configuration. The set must be sorted.
func newIndexedTrace(set *trace.Set, cfg DetectorConfig) *indexedTrace {
	ix := &indexedTrace{cfg: cfg, hasGNBLog: set.HasGNBLog}
	ix.roll.init(cfg)
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
	ix.head = seriesHeads{}
	ix.fwdAt = ix.fwdAt[:0]
	ix.fwdDelay = ix.fwdDelay[:0]
	ix.fwdCumHigh = ix.fwdCumHigh[:0]
	ix.revAt = ix.revAt[:0]
	ix.revDelay = ix.revDelay[:0]
	ix.revCumHigh = ix.revCumHigh[:0]
	for di := 0; di < 2; di++ {
		ix.appAt[di] = ix.appAt[di][:0]
		ix.appBytes[di] = ix.appBytes[di][:0]
		ix.dciAt[di] = ix.dciAt[di][:0]
		ix.dciOwn[di] = ix.dciOwn[di][:0]
		ix.dciOther[di] = ix.dciOther[di][:0]
		ix.dciMCS[di] = ix.dciMCS[di][:0]
		ix.dciTBS[di] = ix.dciTBS[di][:0]
		ix.dciHARQ[di] = ix.dciHARQ[di][:0]
		ix.dciULUse[di] = ix.dciULUse[di][:0]
		ix.dciCumOwn[di] = ix.dciCumOwn[di][:0]
		ix.dciCumOther[di] = ix.dciCumOther[di][:0]
		ix.dciCumHARQ[di] = ix.dciCumHARQ[di][:0]
		ix.dciCumULUse[di] = ix.dciCumULUse[di][:0]
		ix.rlcAt[di] = ix.rlcAt[di][:0]
	}
	ix.rrcAt = ix.rrcAt[:0]
	for si := 0; si < 2; si++ {
		ix.statsAt[si] = ix.statsAt[si][:0]
		ix.stats[si] = ix.stats[si][:0]
		c := &ix.statsCum[si]
		c.resDown = c.resDown[:0]
		c.drain = c.drain[:0]
		c.overuse = c.overuse[:0]
		c.cwndFull = c.cwndFull[:0]
		c.pushNeq = c.pushNeq[:0]
		c.targetDrop = c.targetDrop[:0]
		c.pushDrop = c.pushDrop[:0]
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
		ix.revCumHigh = ix.settleDelay(ix.revAt, ix.revDelay, ix.revCumHigh, rev, ordered)
	default:
		di := dirIdx(p.Dir)
		fwd, app := len(ix.fwdAt), len(ix.appAt[di])
		ix.fwdAt, ix.fwdDelay = append(ix.fwdAt, p.SentAt), append(ix.fwdDelay, d)
		ix.appAt[di], ix.appBytes[di] = append(ix.appAt[di], p.SentAt), append(ix.appBytes[di], p.Size)
		ix.fwdCumHigh = ix.settleDelay(ix.fwdAt, ix.fwdDelay, ix.fwdCumHigh, fwd, ordered)
		ix.settleApp(di, app, ordered)
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
	ix.fwdCumHigh = ix.settleDelay(ix.fwdAt, ix.fwdDelay, ix.fwdCumHigh, fwd, ordered)
	ix.revCumHigh = ix.settleDelay(ix.revAt, ix.revDelay, ix.revCumHigh, rev, ordered)
	for di, base := range app {
		ix.settleApp(di, base, ordered)
	}
}

// settleDelay settles a delay series that was base long before the new
// samples, and returns its cumulative array.
func (ix *indexedTrace) settleDelay(at []sim.Time, delay []float64, cumHigh []int32, base int, ordered bool) []int32 {
	cumHigh = grow(cumHigh, len(at)-base)
	if !ordered {
		base = sortTail(at, base, func(i, j int) { swap(delay, i, j) })
	}
	ix.rebuildDelayCum(delay, cumHigh, base)
	return cumHigh
}

// settleApp settles direction di's send-rate series (no cumulative
// array), which was base long before the new samples.
func (ix *indexedTrace) settleApp(di, base int, ordered bool) {
	if !ordered {
		sortTail(ix.appAt[di], base, func(i, j int) { swap(ix.appBytes[di], i, j) })
	}
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
	at := ix.dciAt[di]
	n := len(at) - base
	ix.dciCumOwn[di], ix.dciCumOther[di] = grow(ix.dciCumOwn[di], n), grow(ix.dciCumOther[di], n)
	ix.dciCumHARQ[di], ix.dciCumULUse[di] = grow(ix.dciCumHARQ[di], n), grow(ix.dciCumULUse[di], n)
	if !ordered {
		sortTail(ix.rlcAt[di], rlc, nil)
		base = sortTail(at, base, func(i, j int) {
			swap(ix.dciOwn[di], i, j)
			swap(ix.dciOther[di], i, j)
			swap(ix.dciMCS[di], i, j)
			swap(ix.dciTBS[di], i, j)
			swap(ix.dciHARQ[di], i, j)
			swap(ix.dciULUse[di], i, j)
		})
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
		sortTail(ix.rlcAt[di], len(ix.rlcAt[di])-1, nil)
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
		sortTail(ix.rlcAt[di], from, nil)
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
		c := &ix.statsCum[si]
		c.resDown, c.drain, c.overuse, c.cwndFull = grow(c.resDown, n), grow(c.drain, n), grow(c.overuse, n), grow(c.cwndFull, n)
		c.pushNeq, c.targetDrop, c.pushDrop = grow(c.pushNeq, n), grow(c.targetDrop, n), grow(c.pushDrop, n)
		if !ordered {
			from = sortTail(ix.statsAt[si], from, func(i, j int) { swap(ix.stats[si], i, j) })
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
	sortTail(ix.rrcAt, rrc, nil)
}

// grow extends s by n elements, which the caller sets.
func grow[S ~[]E, E any](s S, n int) S {
	return slices.Grow(s, n)[:len(s)+n]
}

func swap[E any](s []E, i, j int) { s[i], s[j] = s[j], s[i] }

// statsFlagSet holds one stats record's per-sample condition flags.
type statsFlagSet struct {
	resDown, drain, overuse, cwndFull, pushNeq, targetDrop, pushDrop bool
}

// statsFlags evaluates the flag conditions for record r with (possibly
// nil) predecessor p; pair conditions are attributed to the later
// record.
func (ix *indexedTrace) statsFlags(r, p *trace.WebRTCStatsRecord) statsFlagSet {
	cfg := &ix.cfg
	return statsFlagSet{
		resDown:    p != nil && r.OutboundHeight < p.OutboundHeight,
		drain:      r.VideoJBDelayMs <= cfg.JBDrainMs,
		overuse:    r.GCCNetState == trace.GCCOveruse,
		cwndFull:   r.CongestionWindow > 0 && r.OutstandingBytes > r.CongestionWindow,
		pushNeq:    r.PushbackRateBps < r.TargetBitrateBps*(1-cfg.PushbackNeqFrac),
		targetDrop: p != nil && p.TargetBitrateBps > 0 && r.TargetBitrateBps < p.TargetBitrateBps*(1-cfg.RelDrop),
		pushDrop:   p != nil && p.PushbackRateBps > 0 && r.PushbackRateBps < p.PushbackRateBps*(1-cfg.RelDrop),
	}
}

// delayHigh is the event 11–12 threshold flag.
func (ix *indexedTrace) delayHigh(d float64) bool { return d > ix.cfg.DelayUpMs }

// cum32 returns the flag count over series indices [lo, hi).
func cum32(cum []int32, lo, hi int) int {
	if hi <= lo {
		return 0
	}
	v := cum[hi-1]
	if lo > 0 {
		v -= cum[lo-1]
	}
	return int(v)
}

// cum64 returns the value sum over series indices [lo, hi).
func cum64(cum []int64, lo, hi int) int64 {
	if hi <= lo {
		return 0
	}
	v := cum[hi-1]
	if lo > 0 {
		v -= cum[lo-1]
	}
	return v
}

// evictBefore retires every sample with timestamp < cut. Retiring only
// advances the series group's head; the group's arrays are compacted in
// place (cumulative arrays rebased, rolling cursors shifted alongside)
// once the dead prefix is at least as long as the live part, so the
// backing arrays stay within twice the window high-water mark instead
// of growing with the trace.
func (ix *indexedTrace) evictBefore(cut sim.Time) {
	h := &ix.head
	lo := dead(ix.fwdAt, &h.fwd, cut)
	ix.fwdAt = shiftS(ix.fwdAt, lo)
	ix.fwdDelay = shiftS(ix.fwdDelay, lo)
	ix.fwdCumHigh = shiftCum32(ix.fwdCumHigh, lo)

	lo = dead(ix.revAt, &h.rev, cut)
	ix.revAt = shiftS(ix.revAt, lo)
	ix.revDelay = shiftS(ix.revDelay, lo)
	ix.revCumHigh = shiftCum32(ix.revCumHigh, lo)

	for di := 0; di < 2; di++ {
		lo = dead(ix.appAt[di], &h.app[di], cut)
		ix.appAt[di] = shiftS(ix.appAt[di], lo)
		ix.appBytes[di] = shiftS(ix.appBytes[di], lo)
		ix.roll.appCur[di] = cursorShift(ix.roll.appCur[di], lo)

		lo = dead(ix.dciAt[di], &h.dci[di], cut)
		ix.dciAt[di] = shiftS(ix.dciAt[di], lo)
		ix.dciOwn[di] = shiftS(ix.dciOwn[di], lo)
		ix.dciOther[di] = shiftS(ix.dciOther[di], lo)
		ix.dciMCS[di] = shiftS(ix.dciMCS[di], lo)
		ix.dciTBS[di] = shiftS(ix.dciTBS[di], lo)
		ix.dciHARQ[di] = shiftS(ix.dciHARQ[di], lo)
		ix.dciULUse[di] = shiftS(ix.dciULUse[di], lo)
		ix.dciCumOwn[di] = shiftCum64(ix.dciCumOwn[di], lo)
		ix.dciCumOther[di] = shiftCum64(ix.dciCumOther[di], lo)
		ix.dciCumHARQ[di] = shiftCum32(ix.dciCumHARQ[di], lo)
		ix.dciCumULUse[di] = shiftCum32(ix.dciCumULUse[di], lo)
		ix.roll.dciCur[di] = cursorShift(ix.roll.dciCur[di], lo)

		lo = dead(ix.rlcAt[di], &h.rlc[di], cut)
		ix.rlcAt[di] = shiftS(ix.rlcAt[di], lo)
	}

	lo = dead(ix.rrcAt, &h.rrc, cut)
	ix.rrcAt = shiftS(ix.rrcAt, lo)

	for si := 0; si < 2; si++ {
		lo = dead(ix.statsAt[si], &h.stats[si], cut)
		ix.statsAt[si] = shiftS(ix.statsAt[si], lo)
		ix.stats[si] = shiftS(ix.stats[si], lo)
		c := &ix.statsCum[si]
		c.resDown = shiftCum32(c.resDown, lo)
		c.drain = shiftCum32(c.drain, lo)
		c.overuse = shiftCum32(c.overuse, lo)
		c.cwndFull = shiftCum32(c.cwndFull, lo)
		c.pushNeq = shiftCum32(c.pushNeq, lo)
		c.targetDrop = shiftCum32(c.targetDrop, lo)
		c.pushDrop = shiftCum32(c.pushDrop, lo)
		ix.roll.statsCur[si] = cursorShift(ix.roll.statsCur[si], lo)
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

// shiftS drops the first lo elements of a series in place.
func shiftS[T any](s []T, lo int) []T {
	if lo == 0 {
		return s
	}
	n := copy(s, s[lo:])
	return s[:n]
}

// shiftCum32 drops the first lo entries of a cumulative array, rebasing
// the remainder so cum[i] again aggregates from the new first sample.
// The flag of a former pair condition at the new index 0 may reference
// an evicted predecessor; window queries only ever read pairs from
// index lo+1 on, so the stale contribution cancels out of every range.
func shiftCum32(cum []int32, lo int) []int32 {
	if lo == 0 {
		return cum
	}
	base := cum[lo-1]
	n := copy(cum, cum[lo:])
	cum = cum[:n]
	for i := range cum {
		cum[i] -= base
	}
	return cum
}

func shiftCum64(cum []int64, lo int) []int64 {
	if lo == 0 {
		return cum
	}
	base := cum[lo-1]
	n := copy(cum, cum[lo:])
	cum = cum[:n]
	for i := range cum {
		cum[i] -= base
	}
	return cum
}

// cursorShift moves a rolling consume cursor left with its series.
// Every evicted sample was already consumed (eviction cuts below the
// last evaluated window end), so the cursor never goes negative on the
// analysis paths; the clamp keeps a stray early eviction harmless.
func cursorShift(cur, lo int) int {
	if cur < lo {
		return 0
	}
	return cur - lo
}

// sortTail insertion-sorts into place the samples appended to a time
// series since it was base long, calling swapValues (when not nil) to
// move the parallel value columns alongside, and returns the lowest position
// that changed — base when they arrived in order, which costs one
// comparison each. The walk is O(displacement) per sample, which a
// streaming caller bounds by its lateness slack.
func sortTail(at []sim.Time, base int, swapValues func(i, j int)) int {
	low := base
	for n := max(base, 1); n < len(at); n++ {
		i := n
		for ; i > 0 && at[i] < at[i-1]; i-- {
			at[i], at[i-1] = at[i-1], at[i]
			if swapValues != nil {
				swapValues(i, i-1)
			}
		}
		low = min(low, i)
	}
	return low
}

// rebuildDelayCum recomputes a delay threshold-count array from pos on.
func (ix *indexedTrace) rebuildDelayCum(delay []float64, cum []int32, pos int) {
	var prev int32
	if pos > 0 {
		prev = cum[pos-1]
	}
	for i := pos; i < len(delay); i++ {
		if ix.delayHigh(delay[i]) {
			prev++
		}
		cum[i] = prev
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
	c := &ix.statsCum[si]
	var resDown, drain, overuse, cwndFull, pushNeq, targetDrop, pushDrop int32
	if pos > 0 {
		resDown = c.resDown[pos-1]
		drain = c.drain[pos-1]
		overuse = c.overuse[pos-1]
		cwndFull = c.cwndFull[pos-1]
		pushNeq = c.pushNeq[pos-1]
		targetDrop = c.targetDrop[pos-1]
		pushDrop = c.pushDrop[pos-1]
	}
	for i := pos; i < len(ix.stats[si]); i++ {
		var p *trace.WebRTCStatsRecord
		if i > 0 {
			p = &ix.stats[si][i-1]
		}
		f := ix.statsFlags(&ix.stats[si][i], p)
		if f.resDown {
			resDown++
		}
		if f.drain {
			drain++
		}
		if f.overuse {
			overuse++
		}
		if f.cwndFull {
			cwndFull++
		}
		if f.pushNeq {
			pushNeq++
		}
		if f.targetDrop {
			targetDrop++
		}
		if f.pushDrop {
			pushDrop++
		}
		c.resDown[i] = resDown
		c.drain[i] = drain
		c.overuse[i] = overuse
		c.cwndFull[i] = cwndFull
		c.pushNeq[i] = pushNeq
		c.targetDrop[i] = targetDrop
		c.pushDrop[i] = pushDrop
	}
}

// buffered returns the number of samples currently held across all
// series — the streaming analyzer's O(window) state measure.
func (ix *indexedTrace) buffered() int {
	h := &ix.head
	n := len(ix.fwdAt) - h.fwd + len(ix.revAt) - h.rev + len(ix.rrcAt) - h.rrc
	for di := range ix.dciAt {
		n += len(ix.dciAt[di]) - h.dci[di] + len(ix.rlcAt[di]) - h.rlc[di]
	}
	for si := range ix.statsAt {
		n += len(ix.statsAt[si]) - h.stats[si]
	}
	return n
}

// window returns [lo, hi) index bounds of at-values within [start, end).
func window(at []sim.Time, start, end sim.Time) (int, int) {
	lo := sort.Search(len(at), func(i int) bool { return at[i] >= start })
	hi := sort.Search(len(at), func(i int) bool { return at[i] >= end })
	return lo, hi
}
