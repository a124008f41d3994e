package mac

import (
	"github.com/domino5g/domino/internal/sim"
)

// GrantConfig parameterizes the uplink request–grant loop of one cell.
type GrantConfig struct {
	// SchedulingDelay is the BSR-to-usable-grant latency (the paper
	// measured 5–25 ms across its four cells). It folds together the
	// BSR opportunity wait, gNB processing, and the k2 grant offset.
	SchedulingDelay sim.Time `json:"scheduling_delay_us"`
	// BSRPeriod is the minimum spacing between buffer status reports.
	BSRPeriod sim.Time `json:"bsr_period_us"`
	// MaxGrantBytes caps a single grant (large buffers are served
	// across multiple grants, creating the multi-TB bursts of Fig. 14).
	MaxGrantBytes int `json:"max_grant_bytes"`
	// MinGrantBytes floors a single grant. Real schedulers never issue
	// grants smaller than one PRB's transport block; without the floor,
	// per-PDU header overhead fragments the tail of a buffer into
	// grants too small to carry any payload. Zero selects the default.
	MinGrantBytes int `json:"min_grant_bytes,omitempty"`
	// Proactive enables Mosolabs-style pre-scheduled small grants.
	Proactive bool `json:"proactive,omitempty"`
	// ProactivePeriod is the spacing of proactive grants.
	ProactivePeriod sim.Time `json:"proactive_period_us,omitempty"`
	// ProactiveBytes is the size of each proactive grant.
	ProactiveBytes int `json:"proactive_bytes,omitempty"`
}

// Grant is an uplink transmission opportunity for the experiment UE.
type Grant struct {
	// UsableAt is the earliest slot time the grant can be used.
	UsableAt sim.Time
	// Bytes is the granted capacity.
	Bytes int
	// Proactive marks grants issued without a BSR.
	Proactive bool
}

// ULScheduler runs the UE/gNB request–grant state machine. The cell
// drives it once per UL-capable slot; it decides when BSRs fire and
// returns the grants that are usable in the current slot.
//
// The modeled pipeline, matching §5.2.1: data arrives in the UE RLC
// buffer → at the next BSR opportunity the UE reports its buffer →
// after SchedulingDelay the gNB's grant becomes usable → the UE
// transmits. Grants in flight are tracked so the UE does not re-report
// bytes already requested (over-reporting would hide the over-granting
// waste the paper shows in Fig. 16).
type ULScheduler struct {
	cfg GrantConfig

	pending []Grant // grants not yet usable or not yet consumed

	lastBSRAt     sim.Time
	sentBSR       bool
	inFlightBytes int // bytes requested by BSRs whose grants are still pending

	// Telemetry counters.
	BSRsSent        uint64
	GrantsIssued    uint64
	ProactiveGrants uint64

	lastProactive sim.Time
}

// DefaultMinGrantBytes is the grant floor applied when
// GrantConfig.MinGrantBytes is zero.
const DefaultMinGrantBytes = 64

// NewULScheduler returns a scheduler with the given config.
func NewULScheduler(cfg GrantConfig) *ULScheduler {
	if cfg.MinGrantBytes <= 0 {
		cfg.MinGrantBytes = DefaultMinGrantBytes
	}
	return &ULScheduler{cfg: cfg, lastProactive: -sim.MaxTime / 2, lastBSRAt: -sim.MaxTime / 2}
}

// SetConfig replaces the grant policy from the next UL slot onward.
// Grants already in flight keep their original usability times and
// sizes — exactly like a real gNB reconfiguration, which cannot recall
// issued DCIs. Scenario dynamics schedule this on the simulation
// engine to model scheduler-policy shifts (e.g. grant starvation).
func (s *ULScheduler) SetConfig(cfg GrantConfig) {
	if cfg.MinGrantBytes <= 0 {
		cfg.MinGrantBytes = DefaultMinGrantBytes
	}
	s.cfg = cfg
}

// Config returns the scheduler's current grant policy.
func (s *ULScheduler) Config() GrantConfig { return s.cfg }

// OnULSlot advances the state machine at an uplink-capable slot
// occurring at now, with the UE's current RLC buffer occupancy.
// It returns the total granted bytes usable in this slot (possibly
// from multiple accumulated grants) and whether any of it is proactive.
func (s *ULScheduler) OnULSlot(now sim.Time, bufferedBytes int) (usableBytes int, proactive bool) {
	// 1. Proactive grants fire on their own cadence.
	if s.cfg.Proactive && now-s.lastProactive >= s.cfg.ProactivePeriod {
		s.pending = append(s.pending, Grant{UsableAt: now, Bytes: s.cfg.ProactiveBytes, Proactive: true})
		s.lastProactive = now
		s.ProactiveGrants++
	}

	// 2. BSR: report un-requested buffered bytes, rate-limited.
	unrequested := bufferedBytes - s.inFlightBytes
	if unrequested > 0 && now-s.lastBSRAt >= s.cfg.BSRPeriod {
		req := unrequested
		if s.cfg.MaxGrantBytes > 0 && req > s.cfg.MaxGrantBytes {
			req = s.cfg.MaxGrantBytes
		}
		if req < s.cfg.MinGrantBytes {
			req = s.cfg.MinGrantBytes
		}
		s.pending = append(s.pending, Grant{UsableAt: now + s.cfg.SchedulingDelay, Bytes: req})
		s.inFlightBytes += req
		s.lastBSRAt = now
		s.BSRsSent++
		s.GrantsIssued++
	}

	// 3. Collect grants usable now.
	kept := s.pending[:0]
	for _, g := range s.pending {
		if g.UsableAt <= now {
			usableBytes += g.Bytes
			if g.Proactive {
				proactive = true
			} else {
				s.inFlightBytes -= g.Bytes
				if s.inFlightBytes < 0 {
					s.inFlightBytes = 0
				}
			}
		} else {
			kept = append(kept, g)
		}
	}
	s.pending = kept
	return usableBytes, proactive
}
