// Package core implements Domino, the paper's contribution: sliding a
// window over merged cross-layer traces, evaluating the twenty event
// conditions of Table 5 into a 36-dimensional feature vector, and
// backward-tracing a user-configurable causal DAG from every detected
// WebRTC consequence to its 5G root causes.
package core

import (
	"math/bits"

	"github.com/domino5g/domino/internal/sim"
)

// Canonical feature names. The vector has 36 dimensions: ten
// application events × {local, remote}, two path-delay events, six 5G
// events × {UL, DL}, plus UL-scheduling and RRC-state-change
// (Appendix D).
const (
	// Application events (prefix with side).
	FInboundFPSDown    = "inbound_framerate_down"
	FOutboundFPSDown   = "outbound_framerate_down"
	FOutboundResDown   = "outbound_resolution_down"
	FJitterBufferDrain = "jitter_buffer_drain"
	FTargetBitrateDown = "target_bitrate_down"
	FGCCOveruse        = "gcc_overuse"
	FPushbackRateDown  = "pushback_rate_down"
	FCwndFull          = "cwnd_full"
	FOutstandingUp     = "outstanding_bytes_up"
	FPushbackNeqTarget = "pushback_neq_target"

	// Path events.
	FForwardDelayUp = "forward_delay_up"
	FReverseDelayUp = "reverse_delay_up"

	// 5G events (prefix with direction).
	FTBSDown        = "tbs_down"
	FRateExceedsTBS = "rate_exceeds_tbs"
	FCrossTraffic   = "cross_traffic"
	FChannelDegrade = "channel_degrades"
	FHARQRetx       = "harq_retx"
	FRLCRetx        = "rlc_retx"

	// Singleton events.
	FULScheduling = "ul_scheduling"
	FRRCChange    = "rrc_state_change"
)

var appEvents = []string{
	FInboundFPSDown, FOutboundFPSDown, FOutboundResDown, FJitterBufferDrain,
	FTargetBitrateDown, FGCCOveruse, FPushbackRateDown, FCwndFull,
	FOutstandingUp, FPushbackNeqTarget,
}

var cellEvents = []string{
	FTBSDown, FRateExceedsTBS, FCrossTraffic, FChannelDegrade, FHARQRetx, FRLCRetx,
}

// NumFeatures is the dimensionality of the feature vector.
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

// Offsets of the app events within a side's block, in appEvents order.
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

// Offsets of the cell events within a direction's block, in cellEvents
// order.
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

// featureNames is the canonical name table, built once; featureIndex is
// its inverse. Both are immutable after init.
var (
	featureNames []string
	featureIndex map[string]int
)

func init() {
	featureNames = make([]string, 0, NumFeatures)
	for _, side := range []string{"local_", "remote_"} {
		for _, e := range appEvents {
			featureNames = append(featureNames, side+e)
		}
	}
	featureNames = append(featureNames, FForwardDelayUp, FReverseDelayUp)
	for _, dir := range []string{"ul_", "dl_"} {
		for _, e := range cellEvents {
			featureNames = append(featureNames, dir+e)
		}
	}
	featureNames = append(featureNames, FULScheduling, FRRCChange)
	featureIndex = make(map[string]int, len(featureNames))
	for i, n := range featureNames {
		featureIndex[n] = i
	}
}

// FeatureID returns the bit index of a canonical feature name and
// whether the name is one of the 36 features.
func FeatureID(name string) (int, bool) {
	i, ok := featureIndex[name]
	return i, ok
}

// FeatureBits is a 36-bit set over the canonical features: bit i
// corresponds to featureNames[i]. The zero value has no features
// active.
type FeatureBits uint64

// Has reports whether feature bit i is set.
func (b FeatureBits) Has(i int) bool { return b&(1<<uint(i)) != 0 }

// Set sets feature bit i.
func (b *FeatureBits) Set(i int) { *b |= 1 << uint(i) }

// Assign sets or clears feature bit i.
func (b *FeatureBits) Assign(i int, on bool) {
	if on {
		*b |= 1 << uint(i)
	} else {
		*b &^= 1 << uint(i)
	}
}

// Count returns the number of active features.
func (b FeatureBits) Count() int { return bits.OnesCount64(uint64(b)) }

// FeatureVector is the per-window detection result: the window bounds
// plus a fixed 36-bit set over the canonical features. It is a small
// value type — evaluating a window allocates nothing.
type FeatureVector struct {
	Start, End sim.Time
	Bits       FeatureBits
}

// Has reports whether the named feature fired in this window. Names
// outside the canonical 36 (e.g. custom graph nodes that no detector
// event feeds) are never active.
func (v FeatureVector) Has(name string) bool {
	i, ok := featureIndex[name]
	return ok && v.Bits.Has(i)
}

// Set records the named feature as active (on) or inactive (off),
// replacing direct writes to the former Active map. Unknown names are
// ignored — the detector only ever produces the canonical 36.
func (v *FeatureVector) Set(name string, on bool) {
	if i, ok := featureIndex[name]; ok {
		v.Bits.Assign(i, on)
	}
}
