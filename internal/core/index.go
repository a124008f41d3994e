package core

import (
	"sort"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// indexedTrace holds a trace as binary-searchable per-source series so
// window evaluation is O(window) instead of O(trace). It is built in
// one shot from a full Set (batch analysis) or grown record-by-record
// and pruned from the front (streaming analysis) — evalWindow works
// identically on both because it only ever reads the [start, end)
// slice of each series.
//
// Alongside the raw series it maintains rolling aggregates so that
// evaluating the next window position costs O(samples-in-step) for the
// count/sum/extrema-shaped event conditions instead of re-scanning the
// full window:
//
//   - cumulative count/sum arrays parallel to each series (window
//     aggregate = two array reads after the binary search);
//   - monotonic min/max deques for the argmax-before-argmin conditions
//     (events 1–2, 13), fed by per-series cursors as windows advance;
//   - per-time-bucket caches for the bin-shaped conditions (events 14
//     and 16), with bucket medians computed once per completed bucket.
//
// The cursor-fed structures assume evalWindow is called with
// non-decreasing window starts (the only access pattern batch and
// streaming analysis produce). evalWindowFull is the retained
// position-independent recompute path, pinned equal by differential
// tests.
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
	dciOwn   [2][]int // own-UE PRBs
	dciOther [2][]int // other-UE PRBs
	dciMCS   [2][]int
	dciTBS   [2][]int  // bits
	dciHARQ  [2][]bool // HARQ retx flag
	dciULUse [2][]bool // own transmission

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

	roll    rollState
	scratch evalScratch
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

// evalScratch holds reusable per-evaluation buffers.
type evalScratch struct {
	medians []float64
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
		ix.addPacket(&set.Packets[i])
	}
	for i := range set.DCI {
		ix.addDCI(&set.DCI[i])
	}
	for i := range set.GNBLogs {
		ix.addGNB(&set.GNBLogs[i])
	}
	// Batch construction appends DCI-flagged and gNB-logged RLC retx
	// separately, so the merged series needs a sort; incremental
	// construction receives records time-merged and stays sorted.
	for i := range ix.rlcAt {
		sort.Slice(ix.rlcAt[i], func(a, b int) bool { return ix.rlcAt[i][a] < ix.rlcAt[i][b] })
	}
	for i := range set.RRC {
		ix.rrcAt = append(ix.rrcAt, set.RRC[i].At)
	}
	for i := range set.Stats {
		ix.addStats(&set.Stats[i])
	}
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

// The add* methods append one record's samples; the push* methods under
// them take the fields as scalars, so the columnar path (observeBlock)
// feeds them straight from a block's columns with no record in between.

func (ix *indexedTrace) addPacket(p *trace.PacketRecord) {
	ix.pushPacket(p.Kind, p.Dir, p.Size, p.SentAt, p.Arrived)
}

func (ix *indexedTrace) pushPacket(kind netem.MediaKind, dir netem.Direction, size int, sent, arrived sim.Time) {
	if kind == netem.KindCross {
		return
	}
	d := (arrived - sent).Milliseconds()
	if kind == netem.KindRTCP {
		ix.revAt = append(ix.revAt, sent)
		ix.revDelay = append(ix.revDelay, d)
		ix.revCumHigh = appendCum32(ix.revCumHigh, ix.delayHigh(d))
		return
	}
	di := dirIdx(dir)
	ix.fwdAt = append(ix.fwdAt, sent)
	ix.fwdDelay = append(ix.fwdDelay, d)
	ix.fwdCumHigh = appendCum32(ix.fwdCumHigh, ix.delayHigh(d))
	ix.appAt[di] = append(ix.appAt[di], sent)
	ix.appBytes[di] = append(ix.appBytes[di], size)
}

func (ix *indexedTrace) addDCI(r *trace.DCIRecord) {
	ix.pushDCI(dirIdx(r.Dir), r.At, r.OwnPRB, r.OtherPRB, r.MCS, r.TBSBits, r.HARQRetx, r.RLCRetx)
}

func (ix *indexedTrace) pushDCI(di int, at sim.Time, own, other, mcs, tbs int, harq, rlc bool) {
	ix.dciAt[di] = append(ix.dciAt[di], at)
	ix.dciOwn[di] = append(ix.dciOwn[di], own)
	ix.dciOther[di] = append(ix.dciOther[di], other)
	ix.dciMCS[di] = append(ix.dciMCS[di], mcs)
	if own <= 0 {
		tbs = 0
	}
	ix.dciTBS[di] = append(ix.dciTBS[di], tbs)
	ix.dciHARQ[di] = append(ix.dciHARQ[di], harq)
	ix.dciULUse[di] = append(ix.dciULUse[di], own > 0)
	ix.dciCumOwn[di] = appendCumSum64(ix.dciCumOwn[di], int64(own))
	ix.dciCumOther[di] = appendCumSum64(ix.dciCumOther[di], int64(other))
	ix.dciCumHARQ[di] = appendCum32(ix.dciCumHARQ[di], harq)
	ix.dciCumULUse[di] = appendCum32(ix.dciCumULUse[di], own > 0)
	// The DCI RLC-retx annotation is gNB-internal knowledge: only
	// private cells with base-station logs expose it (the paper's
	// commercial cells detect no RLC retx for exactly this reason).
	if rlc && ix.hasGNBLog {
		ix.rlcAt[di] = append(ix.rlcAt[di], at)
	}
}

func (ix *indexedTrace) addGNB(g *trace.GNBLogRecord) {
	if g.Kind == trace.GNBLogRLCRetx {
		di := dirIdx(g.Dir)
		ix.rlcAt[di] = append(ix.rlcAt[di], g.At)
	}
}

func (ix *indexedTrace) addStats(s *trace.WebRTCStatsRecord) {
	si := sideIdx(s.Local)
	i := len(ix.stats[si])
	ix.statsAt[si] = append(ix.statsAt[si], s.At)
	ix.stats[si] = append(ix.stats[si], *s)
	ix.appendStatsCums(si, i)
}

// observeBlock implements WindowEvaluator.ObserveBlock.
func (ix *indexedTrace) observeBlock(b *trace.Block, lo, hi *[trace.NumSeries]int, ordered bool) {
	// DCI rows and gNB rows both feed rlcAt, one series after the other
	// rather than merged, so its new tail is re-sorted at the end.
	rlcBase := [2]int{len(ix.rlcAt[0]), len(ix.rlcAt[1])}

	d := &b.DCI
	for i := lo[trace.SeriesDCI]; i < hi[trace.SeriesDCI]; i++ {
		di, f := dirIdx(d.Dir[i]), d.Flags[i]
		ix.pushDCI(di, d.At[i], d.OwnPRB[i], d.OtherPRB[i], d.MCS[i], d.TBSBits[i],
			f&trace.DCIFlagHARQRetx != 0, f&trace.DCIFlagRLCRetx != 0)
		if !ordered {
			ix.restoreOrderDCI(di)
		}
	}
	g := &b.GNB
	for i := lo[trace.SeriesGNB]; i < hi[trace.SeriesGNB]; i++ {
		if g.Kind[i] == trace.GNBLogRLCRetx {
			di := dirIdx(g.Dir[i])
			ix.rlcAt[di] = append(ix.rlcAt[di], g.At[i])
		}
	}
	for di, base := range rlcBase {
		sortTail(ix.rlcAt[di], base)
	}
	p := &b.Pkt
	for i := lo[trace.SeriesPkt]; i < hi[trace.SeriesPkt]; i++ {
		ix.pushPacket(p.Kind[i], p.Dir[i], p.Size[i], p.SentAt[i], p.Arrived[i])
		if !ordered {
			ix.restoreOrderPacket(p.Kind[i], p.Dir[i])
		}
	}
	for i := lo[trace.SeriesStats]; i < hi[trace.SeriesStats]; i++ {
		ix.addStats(&b.Stats[i])
		if !ordered {
			ix.restoreOrderStats(sideIdx(b.Stats[i].Local))
		}
	}
	rrcBase := len(ix.rrcAt)
	ix.rrcAt = append(ix.rrcAt, b.RRC.At[lo[trace.SeriesRRC]:hi[trace.SeriesRRC]]...)
	sortTail(ix.rrcAt, rrcBase)
}

// statsFlagSet holds one stats record's per-sample condition flags —
// the single definition both the append path and the out-of-order
// rebuild path count from.
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

// delayHigh is the event 11–12 threshold flag, shared between the
// append path and the out-of-order rebuild path.
func (ix *indexedTrace) delayHigh(d float64) bool { return d > ix.cfg.DelayUpMs }

// appendStatsCums extends side si's cumulative flag counts for the
// record at index i (which must be the last one).
func (ix *indexedTrace) appendStatsCums(si, i int) {
	c := &ix.statsCum[si]
	var p *trace.WebRTCStatsRecord
	if i > 0 {
		p = &ix.stats[si][i-1]
	}
	f := ix.statsFlags(&ix.stats[si][i], p)
	c.resDown = appendCum32(c.resDown, f.resDown)
	c.drain = appendCum32(c.drain, f.drain)
	c.overuse = appendCum32(c.overuse, f.overuse)
	c.cwndFull = appendCum32(c.cwndFull, f.cwndFull)
	c.pushNeq = appendCum32(c.pushNeq, f.pushNeq)
	c.targetDrop = appendCum32(c.targetDrop, f.targetDrop)
	c.pushDrop = appendCum32(c.pushDrop, f.pushDrop)
}

// appendCum32 extends a cumulative count array by one flag.
func appendCum32(cum []int32, flag bool) []int32 {
	var prev int32
	if n := len(cum); n > 0 {
		prev = cum[n-1]
	}
	if flag {
		prev++
	}
	return append(cum, prev)
}

// appendCumSum64 extends a cumulative sum array by one value.
func appendCumSum64(cum []int64, v int64) []int64 {
	var prev int64
	if n := len(cum); n > 0 {
		prev = cum[n-1]
	}
	return append(cum, prev+v)
}

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

// bubbleLast restores sortedness after one sample was appended to a
// time series, swapping the parallel value arrays alongside and
// returning the insertion position. The walk is O(displacement), which
// a streaming caller bounds by its lateness slack; for in-order input
// it is a single comparison.
func bubbleLast(at []sim.Time, swap func(i, j int)) int {
	i := len(at) - 1
	for ; i > 0 && at[i] < at[i-1]; i-- {
		at[i], at[i-1] = at[i-1], at[i]
		if swap != nil {
			swap(i, i-1)
		}
	}
	return i
}

// sortTail insertion-sorts into place the samples appended to a
// time-only series since it was base long (one comparison each when
// they arrived in order).
func sortTail(at []sim.Time, base int) {
	for n := base + 1; n <= len(at); n++ {
		bubbleLast(at[:n], nil)
	}
}

// tailOrdered reports whether a series' last sample is not before its
// predecessor — the in-order case, which the restoreOrder* methods
// settle with this one comparison before they build a swap closure.
func tailOrdered(at []sim.Time) bool {
	n := len(at)
	return n < 2 || at[n-1] >= at[n-2]
}

// restoreOrderPacket re-sorts the tail of the packet-derived series
// after an out-of-order (but within-lateness) streamed packet of the
// given kind and direction, and repairs the cumulative arrays from the
// insertion point.
func (ix *indexedTrace) restoreOrderPacket(kind netem.MediaKind, dir netem.Direction) {
	if kind == netem.KindRTCP {
		if tailOrdered(ix.revAt) {
			return
		}
		pos := bubbleLast(ix.revAt, func(i, j int) {
			ix.revDelay[i], ix.revDelay[j] = ix.revDelay[j], ix.revDelay[i]
		})
		ix.rebuildDelayCum(ix.revDelay, ix.revCumHigh, pos)
		return
	}
	if kind == netem.KindCross || tailOrdered(ix.fwdAt) {
		// fwdAt and appAt[di] take the same timestamps, appAt[di] a
		// subsequence of them: one in order means both are.
		return
	}
	di := dirIdx(dir)
	pos := bubbleLast(ix.fwdAt, func(i, j int) {
		ix.fwdDelay[i], ix.fwdDelay[j] = ix.fwdDelay[j], ix.fwdDelay[i]
	})
	ix.rebuildDelayCum(ix.fwdDelay, ix.fwdCumHigh, pos)
	bubbleLast(ix.appAt[di], func(i, j int) {
		ix.appBytes[di][i], ix.appBytes[di][j] = ix.appBytes[di][j], ix.appBytes[di][i]
	})
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

// restoreOrderDCI re-sorts the tail of direction di's DCI-derived
// series.
func (ix *indexedTrace) restoreOrderDCI(di int) {
	bubbleLast(ix.rlcAt[di], nil)
	if tailOrdered(ix.dciAt[di]) {
		return
	}
	pos := bubbleLast(ix.dciAt[di], func(i, j int) {
		ix.dciOwn[di][i], ix.dciOwn[di][j] = ix.dciOwn[di][j], ix.dciOwn[di][i]
		ix.dciOther[di][i], ix.dciOther[di][j] = ix.dciOther[di][j], ix.dciOther[di][i]
		ix.dciMCS[di][i], ix.dciMCS[di][j] = ix.dciMCS[di][j], ix.dciMCS[di][i]
		ix.dciTBS[di][i], ix.dciTBS[di][j] = ix.dciTBS[di][j], ix.dciTBS[di][i]
		ix.dciHARQ[di][i], ix.dciHARQ[di][j] = ix.dciHARQ[di][j], ix.dciHARQ[di][i]
		ix.dciULUse[di][i], ix.dciULUse[di][j] = ix.dciULUse[di][j], ix.dciULUse[di][i]
	})
	ix.rebuildDCICums(di, pos)
}

// rebuildDCICums recomputes direction di's cumulative arrays from pos.
func (ix *indexedTrace) rebuildDCICums(di, pos int) {
	var pOwn, pOther int64
	var pHARQ, pUse int32
	if pos > 0 {
		pOwn = ix.dciCumOwn[di][pos-1]
		pOther = ix.dciCumOther[di][pos-1]
		pHARQ = ix.dciCumHARQ[di][pos-1]
		pUse = ix.dciCumULUse[di][pos-1]
	}
	for i := pos; i < len(ix.dciAt[di]); i++ {
		pOwn += int64(ix.dciOwn[di][i])
		pOther += int64(ix.dciOther[di][i])
		if ix.dciHARQ[di][i] {
			pHARQ++
		}
		if ix.dciULUse[di][i] {
			pUse++
		}
		ix.dciCumOwn[di][i] = pOwn
		ix.dciCumOther[di][i] = pOther
		ix.dciCumHARQ[di][i] = pHARQ
		ix.dciCumULUse[di][i] = pUse
	}
}

// restoreOrderStats re-sorts the tail of side si's stats series.
func (ix *indexedTrace) restoreOrderStats(si int) {
	if tailOrdered(ix.statsAt[si]) {
		return
	}
	pos := bubbleLast(ix.statsAt[si], func(i, j int) {
		ix.stats[si][i], ix.stats[si][j] = ix.stats[si][j], ix.stats[si][i]
	})
	ix.rebuildStatsCums(si, pos)
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
