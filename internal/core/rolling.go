package core

import (
	"math"

	"github.com/domino5g/domino/internal/sim"
)

// This file holds the cursor-fed half of the rolling window engine:
// monotonic min/max deques for the argmax-before-argmin events and
// per-time-bucket caches for the bin-shaped events. Per-series cursors
// consume samples as window ends advance (so every structure covers
// exactly the samples with timestamp below the last evaluated window
// end), and retire drops entries that slid out of the window start.
//
// A cursor consumes a run — the samples between two window ends — in one
// loop over the index's columns: a series is time-ordered, so the bucket
// a sample falls in is looked up (one division) only when the sample
// leaves the bucket the previous one was in. Everything here is
// allocation-free at steady state: deques and bucket rings reuse their
// backing arrays, and an MCS bucket is a fixed-size count histogram.

// rollState carries the cursors and cursor-fed aggregates of one
// indexedTrace.
type rollState struct {
	lastEnd sim.Time

	statsCur [2]int
	dciCur   [2]int
	appCur   [2]int

	// Per-series consume sequence numbers: a stable stand-in for the
	// sample index that survives eviction/compaction, used to order
	// argmax against argmin.
	statsSeq [2]int64
	dciSeq   [2]int64

	inFPSMax, inFPSMin   [2]extrema
	outFPSMax, outFPSMin [2]extrema
	tbsMax, tbsMin       [2]extrema

	mcs     [2]mcsBuckets
	rateApp [2]binSums
	rateTBS [2]binSums

	// structures lists every deque and bucket ring above once, for
	// reset and retire.
	structures []windowed
}

// windowed is a cursor-fed structure that holds a window's samples.
type windowed interface {
	clear()
	retire(cut sim.Time) // drop what precedes cut
}

// init wires the bucket widths from the (normalized) detector config,
// flips the min deques into min mode and lists the structures.
func (r *rollState) init(cfg DetectorConfig) {
	for i := 0; i < 2; i++ {
		r.inFPSMin[i].isMin = true
		r.outFPSMin[i].isMin = true
		r.tbsMin[i].isMin = true
		r.mcs[i].width = cfg.MCSGroup
		r.rateApp[i].width = cfg.RateBin
		r.rateTBS[i].width = cfg.RateBin
		r.structures = append(r.structures, &r.inFPSMax[i], &r.inFPSMin[i], &r.outFPSMax[i], &r.outFPSMin[i],
			&r.tbsMax[i], &r.tbsMin[i], &r.mcs[i], &r.rateApp[i], &r.rateTBS[i])
	}
}

// reset empties every rolling structure in place, keeping capacity.
func (r *rollState) reset() {
	r.lastEnd = 0
	r.statsCur, r.dciCur, r.appCur = [2]int{}, [2]int{}, [2]int{}
	r.statsSeq, r.dciSeq = [2]int64{}, [2]int64{}
	for _, w := range r.structures {
		w.clear()
	}
}

// noBucket is the bucket end before a run's first sample: below every
// timestamp, so that sample looks its bucket up.
const noBucket = sim.Time(math.MinInt64)

// advance consumes every sample with timestamp < end into the rolling
// structures. end must be non-decreasing across calls.
func (ix *indexedTrace) advanceRoll(end sim.Time) {
	r := &ix.roll
	if end <= r.lastEnd {
		return
	}
	for si := 0; si < 2; si++ {
		at, recs := ix.statsAt[si], ix.stats[si]
		cur, seq := r.statsCur[si], r.statsSeq[si]
		for ; cur < len(at) && at[cur] < end; cur, seq = cur+1, seq+1 {
			t, in, out := at[cur], recs[cur].InboundFPS, recs[cur].OutboundFPS
			r.inFPSMax[si].push(t, seq, in)
			r.inFPSMin[si].push(t, seq, in)
			r.outFPSMax[si].push(t, seq, out)
			r.outFPSMin[si].push(t, seq, out)
		}
		r.statsCur[si], r.statsSeq[si] = cur, seq
	}
	for di := 0; di < 2; di++ {
		at, tbs, own, mcs := ix.dciAt[di], ix.dciTBS[di], ix.dciOwn[di], ix.dciMCS[di]
		tbsMax, tbsMin, rate, groups := &r.tbsMax[di], &r.tbsMin[di], &r.rateTBS[di], &r.mcs[di]
		var (
			bin      *float64   // rate's bucket for samples before binEnd
			group    *mcsBucket // groups' bucket for samples before groupEnd
			binEnd   = noBucket
			groupEnd = noBucket
		)
		cur, seq := r.dciCur[di], r.dciSeq[di]
		for ; cur < len(at) && at[cur] < end; cur, seq = cur+1, seq+1 {
			t := at[cur]
			if b := tbs[cur]; b > 0 {
				v := float64(b)
				tbsMax.push(t, seq, v)
				tbsMin.push(t, seq, v)
				if t >= binEnd {
					bin, binEnd = rate.bucket(t)
				}
				*bin += v
			}
			// != 0, not > 0: event 16 groups a row by a nonzero PRB count,
			// so a malformed negative one carries an MCS sample too.
			if own[cur] != 0 {
				if t >= groupEnd {
					group, groupEnd = groups.bucket(t)
				}
				group.add(mcs[cur])
			}
		}
		r.dciCur[di], r.dciSeq[di] = cur, seq

		at, size := ix.appAt[di], ix.appBytes[di]
		rate, binEnd = &r.rateApp[di], noBucket
		for cur = r.appCur[di]; cur < len(at) && at[cur] < end; cur++ {
			if t := at[cur]; t >= binEnd {
				bin, binEnd = rate.bucket(t)
			}
			*bin += float64(size[cur] * 8)
		}
		r.appCur[di] = cur
	}
	r.lastEnd = end
}

// retire drops rolling entries that precede the window start.
func (ix *indexedTrace) retireRoll(start sim.Time) {
	for _, w := range ix.roll.structures {
		w.retire(start)
	}
}

// extrema is a monotonic deque tracking the window maximum (or, with
// isMin, minimum) of one series, preserving the earliest attaining
// sample so argmax-before-argmin conditions evaluate exactly as a full
// scan would. Entries live in ents[head:]; the dead prefix is compacted
// away once it dominates the backing array.
type extrema struct {
	ents  []extremum
	head  int
	isMin bool
}

// extremum is one deque entry: a sample's time, consume sequence number
// and value.
type extremum struct {
	at  sim.Time
	seq int64
	val float64
}

func (d *extrema) push(at sim.Time, seq int64, v float64) {
	n := len(d.ents)
	for n > d.head {
		last := d.ents[n-1].val
		if (d.isMin && last > v) || (!d.isMin && last < v) {
			n--
			continue
		}
		break
	}
	d.ents = append(d.ents[:n], extremum{at, seq, v})
}

func (d *extrema) retire(cut sim.Time) {
	for d.head < len(d.ents) && d.ents[d.head].at < cut {
		d.head++
	}
	if d.head > 32 && d.head*2 >= len(d.ents) {
		d.ents = d.ents[:copy(d.ents, d.ents[d.head:])]
		d.head = 0
	}
}

func (d *extrema) empty() bool { return d.head >= len(d.ents) }

// front returns the consume sequence and value of the window extremum.
func (d *extrema) front() (int64, float64) { return d.ents[d.head].seq, d.ents[d.head].val }

func (d *extrema) clear() { d.ents, d.head = d.ents[:0], 0 }

// buckets is a ring of fixed-width absolute time buckets (bucket b
// covers [b*width, (b+1)*width)). Live buckets are items[head:], with
// base the bucket index of items[head]; the dead prefix is compacted away
// once it dominates the backing array.
type buckets[T any] struct {
	width sim.Time
	base  int64
	items []T
	head  int
}

// bucket returns at's bucket, appending empty buckets up to it, and the
// bucket's end: it is also the bucket of every later sample before end.
// The pointer holds until the next call.
func (b *buckets[T]) bucket(at sim.Time) (*T, sim.Time) {
	idx := int64(at / b.width)
	if b.head == len(b.items) {
		b.base = idx
	}
	for idx >= b.base+int64(len(b.items)-b.head) {
		var empty T
		b.items = append(b.items, empty)
	}
	return &b.items[b.head+int(idx-b.base)], sim.Time(idx+1) * b.width
}

// get returns absolute bucket idx, nil when it is out of range.
func (b *buckets[T]) get(idx int64) *T {
	if idx < b.base || idx >= b.base+int64(len(b.items)-b.head) {
		return nil
	}
	return &b.items[b.head+int(idx-b.base)]
}

func (b *buckets[T]) retire(cut sim.Time) {
	for b.head < len(b.items) && (b.base+1)*int64(b.width) <= int64(cut) {
		b.head++
		b.base++
	}
	if b.head > 32 && b.head*2 >= len(b.items) {
		b.items = b.items[:copy(b.items, b.items[b.head:])]
		b.head = 0
	}
}

func (b *buckets[T]) clear() { b.items, b.head, b.base = b.items[:0], 0, 0 }

// binSums accumulates a value sum per rate bin.
type binSums = buckets[float64]

// sum returns the sum of absolute bin idx (0 when out of range).
func sum(b *binSums, idx int64) float64 {
	if p := b.get(idx); p != nil {
		return *p
	}
	return 0
}

// mcsLevels bounds the MCS values a bucket counts: NR's MCS index is a
// 5-bit field (TS 38.214 §5.1.3.1).
const mcsLevels = 32

// mcsBuckets caches the own-allocation MCS samples of each MCS group as
// a count per MCS value, and the group's median, read from the
// cumulative counts when a window evaluation first reads the completed
// bucket.
type mcsBuckets = buckets[mcsBucket]

// mcsBucket is one bucket's histogram of the (saturated, see mcsIndex)
// MCS values its samples carry: always exact, as no count can pass n.
type mcsBucket struct {
	counts [mcsLevels]int32
	n      int32
	median uint8
	cached bool // median is set
}

func (b *mcsBucket) add(mcs uint8) {
	b.n++
	b.counts[mcs]++
}

// mcsMedian returns the median MCS and the sample count of absolute
// bucket idx: the sample of rank int(0.5·(n-1)) of the sorted samples.
// Count 0 means the bucket is empty or out of range. The bucket must be
// complete (every sample with a timestamp inside it already consumed),
// which holds for any bucket below the last advanced window end.
func mcsMedian(m *mcsBuckets, idx int64) (median, n int) {
	b := m.get(idx)
	if b == nil {
		return 0, 0
	}
	if !b.cached && b.n > 0 {
		b.median, b.cached = uint8(rankValue(&b.counts, int(0.5*float64(b.n-1)))), true
	}
	return int(b.median), int(b.n)
}

// rankValue returns the value of 0-based rank k among the samples a
// histogram counts, which must number more than k.
func rankValue[C int32 | int](counts *[mcsLevels]C, k int) int {
	v, below := 0, int(counts[0])
	for below <= k {
		v++
		below += int(counts[v])
	}
	return v
}
