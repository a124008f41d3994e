package core

import (
	"fmt"
	"reflect"

	"github.com/domino5g/domino/internal/sim"
)

// DetectorConfig holds the window geometry and every event-condition
// threshold of Table 5. Users override individual fields to tune
// detection for their deployment. A zero field means its Table 5 value
// (DefaultDetectorConfig), so zero itself cannot be asked for. NewAnalyzer
// refuses, with an error naming the field, a negative field (each must be
// positive), a RelDrop, PushbackNeqFrac or RateExceedFrac of 1 or more
// (each would silence its event), and a configuration that breaks a rule
// its fields state.
type DetectorConfig struct {
	// Window is the sliding-window length W (paper: 5 s). It must be a
	// multiple of MCSGroup.
	Window sim.Time
	// Step is the window advance Δt (paper: 0.5 s). Windows start at 0
	// and every Step after, so it must be a multiple of both RateBin and
	// MCSGroup.
	Step sim.Time

	// FPSHigh/FPSLow: frame-rate drop needs max > FPSHigh before a
	// min < FPSLow (events 1–2).
	FPSHigh, FPSLow float64
	// JBDrainMs: a jitter-buffer sample at or below this counts as a
	// drain to zero (event 4).
	JBDrainMs float64
	// RelDrop is the relative decrease that counts as a downtrend for
	// target/pushback rates (events 5, 7) — suppresses estimator noise.
	RelDrop float64
	// PushbackNeqFrac: pushback ≠ target when pushback < target×(1−f)
	// (event 10).
	PushbackNeqFrac float64
	// DelayUpMs: delay-uptrend events additionally require a delay
	// sample above this (events 11–12; paper: 80 ms).
	DelayUpMs float64
	// TrendGroup is the sample count per averaging group for uptrend
	// detection (paper: 10).
	TrendGroup int
	// TBSDropFrac: TBS drop when min < frac × max (event 13; paper 0.8).
	TBSDropFrac float64
	// RateExceedFrac: fraction of window bins where app rate exceeds
	// TBS rate (event 14; paper 0.1).
	RateExceedFrac float64
	// RateBin is the bin width for event 14 (paper: 100 ms).
	RateBin sim.Time
	// CrossFrac: other-UE PRBs exceed this fraction of own PRBs
	// (event 15; paper 0.2).
	CrossFrac float64
	// MCSGroup is the grouping window for event 16 (paper 50 ms).
	MCSGroup sim.Time
	// MCSP90Below / MCSMedianBelow / MCSLowCount: event 16 thresholds
	// (paper: p90 < 20, median < 10 in more than 10 groups). Both MCS
	// thresholds lie in (0, 31]: MCS is a 5-bit index, and the index
	// saturates a value outside 0–31 to that range, which changes no
	// comparison against such a threshold.
	MCSP90Below    float64
	MCSMedianBelow float64
	MCSLowCount    int
	// HARQCount: HARQ retx instances per window that count as an event
	// (event 17; paper 10).
	HARQCount int
}

// DefaultDetectorConfig returns the paper's Table 5 thresholds.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Window:          5 * sim.Second,
		Step:            500 * sim.Millisecond,
		FPSHigh:         27,
		FPSLow:          25,
		JBDrainMs:       0.5,
		RelDrop:         0.05,
		PushbackNeqFrac: 0.02,
		DelayUpMs:       80,
		TrendGroup:      10,
		TBSDropFrac:     0.8,
		RateExceedFrac:  0.10,
		RateBin:         100 * sim.Millisecond,
		CrossFrac:       0.20,
		MCSGroup:        50 * sim.Millisecond,
		MCSP90Below:     20,
		MCSMedianBelow:  10,
		MCSLowCount:     10,
		HARQCount:       10,
	}
}

// normalize fills each zero field with its DefaultDetectorConfig value,
// the one place a threshold is valued.
func (c DetectorConfig) normalize() DetectorConfig {
	v, def := reflect.ValueOf(&c).Elem(), reflect.ValueOf(DefaultDetectorConfig())
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			v.Field(i).Set(def.Field(i))
		}
	}
	return c
}

// validate refuses a normalized configuration that would pin an event
// for every input — a field that is not positive, or a fraction of 1 or
// more — and one the rolling engine cannot evaluate exactly: every
// window must start on a rate-bin and an MCS-group boundary and end on
// an MCS-group boundary, and an MCS threshold must lie where saturating
// MCS to 0–31 keeps its verdicts.
func (c DetectorConfig) validate() error {
	v := reflect.ValueOf(c)
	for i := range v.NumField() {
		if f := v.Field(i); f.CanInt() && f.Int() <= 0 || f.CanFloat() && !(f.Float() > 0) {
			return fmt.Errorf("core: %s %v must be positive", v.Type().Field(i).Name, f)
		}
	}
	for _, name := range []string{"RelDrop", "PushbackNeqFrac", "RateExceedFrac"} {
		if f := v.FieldByName(name).Float(); f >= 1 {
			return fmt.Errorf("core: %s %v must be below 1", name, f)
		}
	}
	switch {
	case c.Step%c.RateBin != 0:
		return fmt.Errorf("core: Step %v must be a multiple of RateBin %v", c.Step, c.RateBin)
	case c.Step%c.MCSGroup != 0:
		return fmt.Errorf("core: Step %v must be a multiple of MCSGroup %v", c.Step, c.MCSGroup)
	case c.Window%c.MCSGroup != 0:
		return fmt.Errorf("core: Window %v must be a multiple of MCSGroup %v", c.Window, c.MCSGroup)
	case c.MCSMedianBelow > mcsLevels-1:
		return fmt.Errorf("core: MCSMedianBelow %v must be in (0, %d]", c.MCSMedianBelow, mcsLevels-1)
	case c.MCSP90Below > mcsLevels-1:
		return fmt.Errorf("core: MCSP90Below %v must be in (0, %d]", c.MCSP90Below, mcsLevels-1)
	}
	return nil
}
