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
// outside 0–31, a group with more samples of one value than a uint16
// counts — a group's median read from its counts is the one sorting its
// saturated samples picks, and the window's verdict is the oracle's over
// the raw samples, under the default MCS thresholds and under thresholds
// at both ends of the range DetectorConfig admits. (MCS is an int in a
// DCIRecord and both codecs reject a fraction, so a non-integer cannot
// reach the index.)
func TestMCSHistogramMatchesSort(t *testing.T) {
	verdicts := map[[2]bool]int{} // {hostile trial, degraded} → trials
	for _, th := range []DetectorConfig{{}, {MCSMedianBelow: 0.5, MCSP90Below: 31}, {MCSMedianBelow: 31, MCSP90Below: 0.5}} {
		th.Window, th.Step, th.MCSLowCount = sim.Second, 500*sim.Millisecond, 3
		a, err := NewAnalyzer(th, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := a.cfg
		groups := int(cfg.Window / cfg.MCSGroup)
		hostile := [...]int{-1, -1 << 40, mcsLevels, 1 << 40}
		rng := rand.New(rand.NewSource(16))
		ix := newIndex(cfg, false)
		for trial := 0; trial < 400; trial++ {
			outOfRange, crowded := trial%4 == 2, trial%32 == 3
			ix.reset(false)
			var rows []trace.DCIRecord
			centre := rng.Intn(mcsLevels)
			samples := make([][]float64, groups) // saturated
			for g := range samples {
				n, same := rng.Intn(40), false
				if crowded && g == trial%groups {
					n, same = math.MaxUint16+rng.Intn(3), true // one under, at and one over a uint16's ceiling
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
					r := trace.DCIRecord{At: sim.Time(g)*cfg.MCSGroup + sim.Time(off), Dir: netem.Uplink, OwnPRB: own, MCS: mcs, TBSBits: 1000}
					ix.addDCI(&r, true)
					rows = append(rows, r)
					if own != 0 {
						samples[g] = append(samples[g], float64(min(max(mcs, 0), mcsLevels-1)))
					}
				}
			}
			ix.advanceRoll(cfg.Window)
			for g, xs := range samples {
				m, n := mcsMedian(&ix.roll.mcs[0], int64(g))
				if n != len(xs) || (n > 0 && float64(m) != median(xs)) {
					t.Fatalf("%+v trial %d group %d: histogram says median %d of %d samples; sorting says %v of %d",
						th, trial, g, m, n, median(xs), len(xs))
				}
			}
			got, want := ix.mcsDegradedRolling(0, 0, cfg.Window), mcsDegraded(rows, 0, cfg)
			if got != want {
				t.Fatalf("%+v trial %d (centre %d): rolling says degraded %v, the oracle %v", th, trial, centre, got, want)
			}
			verdicts[[2]bool{outOfRange || crowded, want}]++
		}
	}
	if len(verdicts) != 4 {
		t.Fatalf("trials did not cover both verdicts on clean and hostile groups: %v", verdicts)
	}
}
