package core

import "github.com/domino5g/domino/internal/sim"

// EvalFull computes the same vector as Eval by re-aggregating every
// sample in the window — the recompute oracle, free of cross-call
// state, exported to the external test package only. Differential
// tests pin Eval ≡ EvalFull across every scenario.
func (e *WindowEvaluator) EvalFull(start sim.Time) FeatureVector {
	return e.ix.evalWindowFull(e.ix.cfg, start)
}
