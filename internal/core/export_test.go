package core

import (
	"slices"

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

// has reports whether the named feature fired in v. Names outside the
// canonical 36 never have.
func has(v FeatureVector, name string) bool {
	i := slices.Index(featureNames, name)
	return i >= 0 && v.Bits.Has(i)
}

// Has reports whether feature bit i is set.
func (b FeatureBits) Has(i int) bool { return b&(1<<uint(i)) != 0 }

// Assign sets or clears feature bit i.
func (b *FeatureBits) Assign(i int, on bool) {
	if on {
		b.Set(i)
	} else {
		*b &^= 1 << uint(i)
	}
}

// NodeActive evaluates a node (alias-aware) against a feature vector by
// name: the oracle compileGraph's per-node masks are held to.
func (g *Graph) NodeActive(name string, v FeatureVector) bool {
	if members, ok := g.aliases[name]; ok {
		for _, m := range members {
			if g.NodeActive(m, v) {
				return true
			}
		}
		return false
	}
	return has(v, name)
}

// OracleWindow computes the vector Eval computes for [start, start+W)
// by re-aggregating every sample of the sorted set in the window — the
// full-recompute oracle (oracle_internal_test.go), exported to the
// external test package only. cfg must be normalized (Analyzer.Config).
func OracleWindow(set *trace.Set, cfg DetectorConfig, start sim.Time) FeatureVector {
	return oracleWindow(set, cfg, start)
}
