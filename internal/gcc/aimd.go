package gcc

import (
	"math"

	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// AIMDConfig parameterizes the delay-based rate controller.
type AIMDConfig struct {
	MinRateBps float64
	MaxRateBps float64
	// Beta is the multiplicative-decrease factor applied to the
	// acknowledged bitrate on overuse (libwebrtc: 0.85).
	Beta float64
	// MultiplicativeGainPerSecond is the far-from-limit growth factor.
	MultiplicativeGainPerSecond float64
	// FastRecovery enables the acknowledged-bitrate shortcut the paper
	// describes in §6.2: after a short-lived overuse, if measured
	// throughput stayed high, jump straight back instead of slow
	// additive probing. Observed in ~1% of anomalies.
	FastRecovery bool
	// FastRecoveryWindow bounds how long after a decrease the shortcut
	// may fire.
	FastRecoveryWindow sim.Time
}

// DefaultAIMDConfig returns the standard configuration.
func DefaultAIMDConfig() AIMDConfig {
	return AIMDConfig{
		MinRateBps:                  150_000,
		MaxRateBps:                  15_000_000,
		Beta:                        0.85,
		MultiplicativeGainPerSecond: 1.08,
		FastRecovery:                true,
		FastRecoveryWindow:          3 * sim.Second,
	}
}

// aimdState is the rate controller's phase.
type aimdState int

const (
	stateHold aimdState = iota
	stateIncrease
	stateDecrease
)

// AIMD is the delay-based rate controller: Hold/Increase/Decrease
// driven by the overuse detector, with the acknowledged bitrate
// anchoring decreases and the near-max region selecting additive
// (cautious) instead of multiplicative probing.
type AIMD struct {
	cfg AIMDConfig

	rate              float64
	state             aimdState
	lastUpdate        sim.Time
	linkCapacity      float64 // EWMA of acked bitrate around decreases
	haveCapacity      bool
	lastDecreaseAt    sim.Time
	rateBeforeDrop    float64
	avgPacketSizeBits float64
}

// NewAIMD returns a controller starting at startRate.
func NewAIMD(cfg AIMDConfig, startRate float64, now sim.Time) *AIMD {
	if startRate < cfg.MinRateBps {
		startRate = cfg.MinRateBps
	}
	return &AIMD{cfg: cfg, rate: startRate, state: stateIncrease, lastUpdate: now, avgPacketSizeBits: 9600}
}

// Update advances the controller with the detector state and the
// current acknowledged bitrate, returning the new target rate.
func (a *AIMD) Update(now sim.Time, detector trace.GCCState, ackedBps float64, rttMs float64) float64 {
	dt := (now - a.lastUpdate).Seconds()
	if dt < 0 {
		dt = 0
	}
	if dt > 1 {
		dt = 1
	}

	// State machine per the GCC draft: overuse always decreases;
	// underuse holds (lets queues drain); normal resumes increase.
	switch detector {
	case trace.GCCOveruse:
		a.state = stateDecrease
	case trace.GCCUnderuse:
		a.state = stateHold
	case trace.GCCNormal:
		if a.state == stateHold || a.state == stateDecrease {
			a.state = stateIncrease
		}
	}

	switch a.state {
	case stateDecrease:
		target := a.rate * a.cfg.Beta
		if ackedBps > 0 {
			target = ackedBps * a.cfg.Beta
			// Track link capacity estimate around the decrease.
			if !a.haveCapacity {
				a.linkCapacity = ackedBps
				a.haveCapacity = true
			} else {
				a.linkCapacity = 0.95*a.linkCapacity + 0.05*ackedBps
			}
		}
		if target < a.rate {
			if a.rate > a.cfg.MinRateBps && a.rateBeforeDrop == 0 {
				a.rateBeforeDrop = a.rate
				a.lastDecreaseAt = now
			}
			a.rate = target
		}
		a.state = stateHold
	case stateIncrease:
		// Fast recovery: a short-lived overuse with sustained high
		// measured throughput jumps straight back (§6.2).
		if a.cfg.FastRecovery && a.rateBeforeDrop > 0 &&
			now-a.lastDecreaseAt <= a.cfg.FastRecoveryWindow &&
			ackedBps >= 0.95*a.rateBeforeDrop {
			a.rate = a.rateBeforeDrop
			a.rateBeforeDrop = 0
		} else if a.haveCapacity && a.rate >= 0.9*a.linkCapacity {
			// Near the estimated capacity: cautious additive increase
			// of about half a packet per RTT.
			if rttMs <= 0 {
				rttMs = 100
			}
			responseTime := rttMs + 100
			alpha := 0.5 * a.avgPacketSizeBits * (1000 * dt / responseTime)
			if alpha < 1000*dt {
				alpha = 1000 * dt
			}
			a.rate += alpha
		} else {
			// Far from capacity: multiplicative probing.
			gain := math.Pow(a.cfg.MultiplicativeGainPerSecond, dt)
			a.rate *= gain
		}
		if a.rateBeforeDrop > 0 && a.rate >= a.rateBeforeDrop {
			a.rateBeforeDrop = 0
		}
	case stateHold:
		// Keep the rate.
	}

	// Never exceed 1.5× the measured throughput (standard GCC cap) nor
	// the configured bounds.
	if ackedBps > 0 && a.rate > 1.5*ackedBps+30_000 {
		a.rate = 1.5*ackedBps + 30_000
	}
	if a.rate < a.cfg.MinRateBps {
		a.rate = a.cfg.MinRateBps
	}
	if a.rate > a.cfg.MaxRateBps {
		a.rate = a.cfg.MaxRateBps
	}
	a.lastUpdate = now
	return a.rate
}

// Rate returns the current target rate.
func (a *AIMD) Rate() float64 { return a.rate }
