package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// TestMCSHistogramMatchesSort is event 16's property test: over random
// MCS groups — empty ones, slots without an allocation, MCS values
// outside the histogram's range, a group with more samples of one value
// than a counter holds — a group's median read from its counts is the
// one sorting its samples picks, a histogram is declared inexact exactly
// when it is, and the window's verdict is mcsDegradedFull's either way.
// (MCS is an int in a DCIRecord and both codecs reject a fraction, so a
// non-integer cannot reach the index.)
func TestMCSHistogramMatchesSort(t *testing.T) {
	a, err := NewAnalyzer(DetectorConfig{Window: sim.Second, Step: 500 * sim.Millisecond, MCSLowCount: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.cfg
	groups := int(cfg.Window / cfg.MCSGroup)
	hostile := [...]int{-1, -1 << 40, mcsLevels, 1 << 40}
	rng := rand.New(rand.NewSource(16))
	verdicts := map[[2]bool]int{} // {hostile trial, degraded} → trials
	ix := &indexedTrace{cfg: cfg}
	ix.roll.init(cfg)
	for trial := 0; trial < 400; trial++ {
		outOfRange, saturated := trial%4 == 2, trial%32 == 3
		ix.reset(false)
		centre := rng.Intn(mcsLevels)
		samples := make([][]float64, groups)
		for g := range samples {
			n, same := rng.Intn(40), false
			if saturated && g == trial%groups {
				n, same = math.MaxUint16+rng.Intn(3), true // one under, at and one over the counter's ceiling
			}
			offsets := make([]int, n)
			for k := range offsets {
				offsets[k] = rng.Intn(int(cfg.MCSGroup))
			}
			sort.Ints(offsets)
			for _, off := range offsets {
				mcs := min(max(centre+rng.Intn(9)-4, 0), mcsLevels-1)
				own := rng.Intn(12) - 1 // -1: a malformed row the oracle counts; 0: no allocation
				switch {
				case same:
					mcs, own = centre, 1
				case outOfRange && rng.Intn(20) == 0:
					mcs = hostile[rng.Intn(len(hostile))]
				}
				ix.addDCI(&trace.DCIRecord{At: sim.Time(g)*cfg.MCSGroup + sim.Time(off), Dir: netem.Uplink, OwnPRB: own, MCS: mcs, TBSBits: 1000}, true)
				if own != 0 {
					samples[g] = append(samples[g], float64(mcs))
				}
			}
		}
		ix.advanceRoll(cfg.Window)
		for g, xs := range samples {
			exact, count := true, map[float64]int{}
			for _, x := range xs {
				count[x]++
				exact = exact && x >= 0 && x < mcsLevels && count[x] <= math.MaxUint16
			}
			m, n, ok := mcsMedian(&ix.roll.mcs[0], int64(g))
			if ok != exact || n != len(xs) || (ok && n > 0 && float64(m) != median(xs)) {
				t.Fatalf("trial %d group %d: histogram says median %d of %d samples, exact %v; sorting says %v of %d, exact %v",
					trial, g, m, n, ok, median(xs), len(xs), exact)
			}
		}
		got, want := ix.mcsDegradedRolling(0, 0, cfg.Window), ix.mcsDegradedFull(0, 0, cfg.Window)
		if got != want {
			t.Fatalf("trial %d (centre %d): rolling says degraded %v, the oracle %v", trial, centre, got, want)
		}
		verdicts[[2]bool{outOfRange || saturated, want}]++
	}
	if len(verdicts) != 4 {
		t.Fatalf("trials did not cover both verdicts on clean and hostile groups: %v", verdicts)
	}
}
