package core

import (
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// Active names the features v has on, for failure messages.
func (v FeatureVector) Active() map[string]bool {
	out := map[string]bool{}
	for i, n := range featureNames {
		if v.Bits.Has(i) {
			out[n] = true
		}
	}
	return out
}

// OracleWindow computes the vector Eval computes for [start, start+W)
// by re-aggregating every sample of the sorted set in the window — the
// full-recompute oracle (oracle_internal_test.go), exported to the
// external test package only. cfg must be normalized (Analyzer.Config).
func OracleWindow(set *trace.Set, cfg DetectorConfig, start sim.Time) FeatureVector {
	return oracleWindow(set, cfg, start)
}
