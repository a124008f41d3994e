package gcc

import (
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// TrendlineConfig parameterizes the delay-gradient estimator and the
// adaptive-threshold overuse detector (libwebrtc defaults).
type TrendlineConfig struct {
	// WindowSize is the number of delay samples in the regression.
	WindowSize int
	// SmoothingCoef is the exponential smoothing factor applied to the
	// accumulated delay before the regression.
	SmoothingCoef float64
	// ThresholdGain scales the raw slope into the modified trend
	// compared against the threshold.
	ThresholdGain float64
	// InitialThreshold is the starting adaptive threshold (ms).
	InitialThreshold float64
	// KUp / KDown are the adaptive threshold gains (threshold chases
	// |trend| slowly upward, faster downward).
	KUp, KDown float64
	// OverusingTime is how long the modified trend must stay above the
	// threshold before Overuse is signaled.
	OverusingTime sim.Time
}

// DefaultTrendlineConfig returns the libwebrtc default parameters.
func DefaultTrendlineConfig() TrendlineConfig {
	return TrendlineConfig{
		WindowSize:       20,
		SmoothingCoef:    0.9,
		ThresholdGain:    4.0,
		InitialThreshold: 12.5,
		KUp:              0.0087,
		KDown:            0.039,
		OverusingTime:    10 * sim.Millisecond,
	}
}

// Trendline estimates the one-way delay gradient and classifies the
// network state. It is the paper's Fig. 21 "slope of delay variation"
// signal together with the adaptive threshold.
type Trendline struct {
	cfg TrendlineConfig

	accumulatedDelay float64
	smoothedDelay    float64
	samples          []trendSample // ring of (arrivalMs, smoothedDelay)
	numDeltas        int

	slope     float64
	modified  float64
	threshold float64

	state          trace.GCCState
	overusingSince sim.Time
	overuseActive  bool
	lastSampleAt   sim.Time
}

type trendSample struct {
	arrivalMs float64
	delay     float64
}

// NewTrendline returns an estimator with the given config.
func NewTrendline(cfg TrendlineConfig) *Trendline {
	if cfg.WindowSize <= 1 {
		cfg = DefaultTrendlineConfig()
	}
	return &Trendline{cfg: cfg, threshold: cfg.InitialThreshold, state: trace.GCCNormal}
}

// Update feeds one delay-variation sample and returns the current
// network state.
func (t *Trendline) Update(s DelaySample) trace.GCCState {
	t.numDeltas++
	t.accumulatedDelay += s.DeltaMs
	t.smoothedDelay = t.cfg.SmoothingCoef*t.smoothedDelay + (1-t.cfg.SmoothingCoef)*t.accumulatedDelay

	t.samples = append(t.samples, trendSample{arrivalMs: s.At.Milliseconds(), delay: t.smoothedDelay})
	if len(t.samples) > t.cfg.WindowSize {
		t.samples = t.samples[1:]
	}
	if len(t.samples) == t.cfg.WindowSize {
		t.slope = lsqSlope(t.samples)
	}

	nd := t.numDeltas
	if nd > 60 {
		nd = 60
	}
	t.modified = float64(nd) * t.slope * t.cfg.ThresholdGain
	t.detect(s.At)
	t.adaptThreshold(s.At)
	t.lastSampleAt = s.At
	return t.state
}

// detect runs the overuse state machine on the modified trend.
func (t *Trendline) detect(now sim.Time) {
	switch {
	case t.modified > t.threshold:
		if !t.overuseActive {
			t.overuseActive = true
			t.overusingSince = now
		}
		if now-t.overusingSince >= t.cfg.OverusingTime {
			t.state = trace.GCCOveruse
		}
	case t.modified < -t.threshold:
		t.overuseActive = false
		t.state = trace.GCCUnderuse
	default:
		t.overuseActive = false
		t.state = trace.GCCNormal
	}
}

// adaptThreshold chases |modified| with asymmetric gains, clamped to
// [6, 600] ms as in libwebrtc. The adaptation keeps a single standing
// queue from permanently pinning the detector at Overuse.
func (t *Trendline) adaptThreshold(now sim.Time) {
	if t.lastSampleAt == 0 {
		return
	}
	dtMs := (now - t.lastSampleAt).Milliseconds()
	if dtMs < 0 {
		dtMs = 0
	}
	if dtMs > 100 {
		dtMs = 100
	}
	abs := t.modified
	if abs < 0 {
		abs = -abs
	}
	// Outliers far above the threshold adapt it as if they sat at the
	// +15 ms cap: a lone spike cannot yank the threshold up, but
	// sustained high-jitter regimes (5G delay spread) still raise the
	// tolerance instead of pinning the detector at Overuse. (libwebrtc
	// skips these samples entirely; on cellular-grade jitter that
	// starves the adaptation loop.)
	if abs > t.threshold+15 {
		abs = t.threshold + 15
	}
	k := t.cfg.KDown
	if abs > t.threshold {
		k = t.cfg.KUp
	}
	t.threshold += k * (abs - t.threshold) * dtMs
	if t.threshold < 6 {
		t.threshold = 6
	}
	if t.threshold > 600 {
		t.threshold = 600
	}
}

// ModifiedTrend returns the gain-scaled trend compared to Threshold.
func (t *Trendline) ModifiedTrend() float64 { return t.modified }

// Threshold returns the adaptive threshold.
func (t *Trendline) Threshold() float64 { return t.threshold }

// State returns the current network-state classification.
func (t *Trendline) State() trace.GCCState { return t.state }

// lsqSlope is a least-squares linear fit of delay against arrival time.
func lsqSlope(samples []trendSample) float64 {
	n := float64(len(samples))
	var sumX, sumY float64
	for _, s := range samples {
		sumX += s.arrivalMs
		sumY += s.delay
	}
	meanX, meanY := sumX/n, sumY/n
	var num, den float64
	for _, s := range samples {
		dx := s.arrivalMs - meanX
		num += dx * (s.delay - meanY)
		den += dx * dx
	}
	if den == 0 {
		return 0
	}
	return num / den
}
