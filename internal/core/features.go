// Package core implements Domino, the paper's contribution: sliding a
// window over merged cross-layer traces, evaluating the twenty event
// conditions of Table 5 into a 36-dimensional feature vector, and
// backward-tracing a user-configurable causal DAG from every detected
// WebRTC consequence to its 5G root causes.
package core

import "github.com/domino5g/domino/internal/sim"

// NumFeatures is the dimensionality of the feature vector: ten
// application events × {local, remote}, two path-delay events, six 5G
// events × {UL, DL}, plus UL-scheduling and RRC-state-change
// (Appendix D).
const NumFeatures = 36

// Feature indices: the bit position of every canonical feature inside a
// FeatureBits word, in featureNames order. Application events occupy
// [fidAppBase(si), fidAppBase(si)+10) per side, cell events
// [fidCellBase(di), fidCellBase(di)+6) per direction.
const (
	fidFwdDelay = 20
	fidRevDelay = 21
	fidULSched  = 34
	fidRRC      = 35
)

// Offsets of the app events within a side's block.
const (
	appInFPS = iota
	appOutFPS
	appResDown
	appJBDrain
	appTargetDown
	appOveruse
	appPushDown
	appCwndFull
	appOutstanding
	appPushNeq
)

// Offsets of the cell events within a direction's block.
const (
	cellTBSDown = iota
	cellRateExceeds
	cellCross
	cellChanDegrade
	cellHARQ
	cellRLC
)

func fidAppBase(si int) int  { return si * 10 }
func fidCellBase(di int) int { return 22 + di*6 }

// featureNames is the canonical feature table: featureNames[i] names
// FeatureBits bit i. Application events, in app-offset order, carry
// their side as a prefix and 5G events, in cell-offset order, their
// direction. compileGraph is the one code that looks a name up in it.
var featureNames = func() []string {
	app := []string{
		"inbound_framerate_down", "outbound_framerate_down", "outbound_resolution_down", "jitter_buffer_drain",
		"target_bitrate_down", "gcc_overuse", "pushback_rate_down", "cwnd_full",
		"outstanding_bytes_up", "pushback_neq_target",
	}
	cell := []string{"tbs_down", "rate_exceeds_tbs", "cross_traffic", "channel_degrades", "harq_retx", "rlc_retx"}
	names := make([]string, 0, NumFeatures)
	for _, side := range []string{"local_", "remote_"} {
		for _, e := range app {
			names = append(names, side+e)
		}
	}
	names = append(names, "forward_delay_up", "reverse_delay_up")
	for _, dir := range []string{"ul_", "dl_"} {
		for _, e := range cell {
			names = append(names, dir+e)
		}
	}
	return append(names, "ul_scheduling", "rrc_state_change")
}()

// FeatureBits is a 36-bit set over the canonical features: bit i
// corresponds to featureNames[i]. The zero value has no features
// active.
type FeatureBits uint64

// Set sets feature bit i.
func (b *FeatureBits) Set(i int) { *b |= 1 << uint(i) }

// FeatureVector is the per-window detection result: the window bounds
// plus a fixed 36-bit set over the canonical features. It is a small
// value type — evaluating a window allocates nothing.
type FeatureVector struct {
	Start, End sim.Time
	Bits       FeatureBits
}
