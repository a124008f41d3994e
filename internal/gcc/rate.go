package gcc

import "github.com/domino5g/domino/internal/sim"

// AckedBitrate measures delivered throughput from transport feedback
// over a sliding window — GCC's "acknowledged bitrate estimator".
type AckedBitrate struct {
	window  sim.Time
	samples []ackSample
	bytes   int
}

type ackSample struct {
	at   sim.Time
	size int
}

// NewAckedBitrate returns an estimator with the given window
// (libwebrtc uses ~500 ms; zero selects that default).
func NewAckedBitrate(window sim.Time) *AckedBitrate {
	if window <= 0 {
		window = 500 * sim.Millisecond
	}
	return &AckedBitrate{window: window}
}

// OnAcked records size bytes acknowledged as received at time at.
func (ab *AckedBitrate) OnAcked(at sim.Time, size int) {
	ab.samples = append(ab.samples, ackSample{at: at, size: size})
	ab.bytes += size
	ab.trim(at)
}

func (ab *AckedBitrate) trim(now sim.Time) {
	cut := 0
	for cut < len(ab.samples) && ab.samples[cut].at < now-ab.window {
		ab.bytes -= ab.samples[cut].size
		cut++
	}
	if cut > 0 {
		ab.samples = ab.samples[cut:]
	}
}

// Rate returns the current estimate in bits per second (0 until data).
func (ab *AckedBitrate) Rate(now sim.Time) float64 {
	ab.trim(now)
	if len(ab.samples) < 2 {
		return 0
	}
	span := ab.samples[len(ab.samples)-1].at - ab.samples[0].at
	if span < 50*sim.Millisecond {
		span = 50 * sim.Millisecond
	}
	return float64(ab.bytes*8) / span.Seconds()
}

// LossEstimator applies the GCC loss-based bound: above 10% loss the
// rate is cut proportionally; below 2% it may grow; in between it
// holds.
type LossEstimator struct {
	rate float64
}

// NewLossEstimator starts the loss-based bound at startRate.
func NewLossEstimator(startRate float64) *LossEstimator {
	return &LossEstimator{rate: startRate}
}

// Update applies one feedback interval's loss fraction and returns the
// loss-based rate bound. The bound is stateful: sustained loss
// compounds multiplicative cuts; loss-free intervals grow the bound
// back toward (and then past) the delay-based rate, at which point the
// delay-based estimate governs.
func (l *LossEstimator) Update(lossFraction, delayBasedRate float64) float64 {
	if l.rate <= 0 {
		l.rate = delayBasedRate
	}
	switch {
	case lossFraction > 0.10:
		l.rate *= 1 - 0.5*lossFraction
	case lossFraction < 0.02:
		l.rate *= 1.05
	}
	if l.rate > delayBasedRate {
		l.rate = delayBasedRate
	}
	return l.rate
}

// Rate returns the current loss-based bound.
func (l *LossEstimator) Rate() float64 { return l.rate }
