package scenario

import (
	"fmt"
	"strings"

	"github.com/domino5g/domino/internal/mac"
	"github.com/domino5g/domino/internal/sim"
)

// Names returns the catalog's scenario names in catalog order.
func Names() []string {
	cat := catalog()
	out := make([]string, len(cat))
	for i, s := range cat {
		out[i] = s.Name
	}
	return out
}

// All returns a fresh copy of every catalog scenario in catalog order.
func All() []Scenario { return catalog() }

// ByName looks a catalog scenario up case-insensitively, returning a
// fresh copy. Unknown names report the valid ones.
func ByName(name string) (Scenario, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, s := range catalog() {
		if strings.ToLower(s.Name) == key {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// catalog returns the scenario catalog, built fresh on every call so a
// caller mutating a returned scenario's dynamics (to derive a custom
// workload) never changes what the next caller gets. The four Table 1
// presets come first (no dynamics — they replay byte-identically to
// ran.Presets() sessions), then the degradation scenarios, each
// designed to provoke a different causal chain of the Fig. 9 graph (the
// Provokes field names the intended nodes; the catalog test asserts
// each fires in the Domino report). The order is the order of Names,
// All and every artifact and corpus built from them.
func catalog() []Scenario {
	return []Scenario{
		// --- Table 1 presets as scenarios. ---
		{
			Name:        "tmobile-tdd",
			Description: "Table 1: T-Mobile 100 MHz TDD — wide mid-band carrier, light cross traffic, small delay spread",
			Cell:        "tmobile-tdd",
		},
		{
			Name:        "tmobile-fdd",
			Description: "Table 1: T-Mobile 15 MHz FDD — busy low-band cell, heavy DL cross traffic, intermittent RRC releases",
			Cell:        "tmobile-fdd",
		},
		{
			Name:        "amarisoft",
			Description: "Table 1: Amarisoft 20 MHz TDD — private cell, persistently poor UL channel, conservative UL MCS",
			Cell:        "amarisoft",
		},
		{
			Name:        "mosolabs",
			Description: "Table 1: Mosolabs 20 MHz TDD — private cell, healthy channel, proactive UL grants",
			Cell:        "mosolabs",
		},

		// --- Degradation scenarios. ---
		{
			Name:        "midcall-snr-collapse",
			Description: "UL mean SNR ramps down 14 dB at 10 s and never recovers: MCS collapse, RLC build-up, lasting delay",
			Cell:        "amarisoft",
			Dynamics: []Dynamic{
				&SNRRamp{Dir: UL, Start: 10 * sim.Second, End: 14 * sim.Second, DeltaDB: -14},
			},
			Provokes: []string{"poor_channel", "tbs_down"},
		},
		{
			Name:        "rush-hour-cross-traffic",
			Description: "quiet wide cell enters rush hour at 8 s (heavy stochastic DL load) plus one 50% neighbor burst",
			Cell:        "tmobile-tdd",
			Dynamics: []Dynamic{
				&CrossTrafficPhase{Dir: DL, At: 8 * sim.Second, Config: mac.CrossTrafficConfig{
					UEs: 12, BurstRate: 10, BurstDuration: 800 * sim.Millisecond,
					BurstPRBFraction: 0.45, BaselineFraction: 0.35,
				}},
				&CrossTrafficBurst{Dir: DL, Start: 10 * sim.Second, End: 14 * sim.Second, Fraction: 0.5},
			},
			Provokes: []string{"cross_traffic"},
		},
		{
			Name:        "flapping-rrc",
			Description: "stable private cell develops a flapping-RRC phase (20 releases/min between 8 s and 22 s)",
			Cell:        "amarisoft",
			Dynamics: []Dynamic{
				&RRCFlakyPhase{Start: 8 * sim.Second, End: 22 * sim.Second, RatePerMinute: 20, Outage: 400 * sim.Millisecond},
				&RRCRelease{At: 10 * sim.Second},
			},
			Provokes: []string{"rrc_state_change"},
		},
		{
			Name:        "grant-starvation",
			Description: "scheduler reconfigured at 10 s to 45 ms grant delay and 1.5 KB grant caps: UL starves behind BSRs",
			Cell:        "tmobile-tdd",
			Dynamics: []Dynamic{
				&GrantPolicyShift{At: 10 * sim.Second, Grants: mac.GrantConfig{
					SchedulingDelay: 45 * sim.Millisecond,
					BSRPeriod:       10 * sim.Millisecond,
					MaxGrantBytes:   1500,
				}},
			},
			Provokes: []string{"ul_scheduling", "forward_delay_up"},
		},
		{
			Name:        "ue-share-squeeze",
			Description: "scheduler fairness cap drops to 6% of the carrier between 10 s and 20 s (higher-priority slice admitted)",
			Cell:        "tmobile-tdd",
			Dynamics: []Dynamic{
				&UEShareDrop{Start: 10 * sim.Second, End: 20 * sim.Second, Share: 0.06},
			},
			Provokes: []string{"tbs_down", "rate_exceeds_tbs"},
		},
		{
			Name:        "harq-storm",
			Description: "three 24 dB UL fades (blocking events) trigger HARQ retransmission bursts",
			Cell:        "amarisoft",
			Dynamics: []Dynamic{
				&SNRDip{Dir: UL, Start: 8 * sim.Second, End: 9 * sim.Second, DepthDB: 24},
				&SNRDip{Dir: UL, Start: 12 * sim.Second, End: 13 * sim.Second, DepthDB: 24},
				&SNRDip{Dir: UL, Start: 16 * sim.Second, End: 17 * sim.Second, DepthDB: 24},
			},
			Provokes: []string{"harq_retx"},
		},
		{
			Name:        "rlc-cascade",
			Description: "one deep 30 dB UL fade exhausts HARQ and forces ~105 ms RLC recoveries with HoL bursts",
			Cell:        "amarisoft",
			Dynamics: []Dynamic{
				&SNRDip{Dir: UL, Start: 10 * sim.Second, End: 11200 * sim.Millisecond, DepthDB: 30},
			},
			Provokes: []string{"rlc_retx"},
		},
		{
			Name:        "jb-freeze-surge",
			Description: "280 ms forward-path surge on the DL wired leg drains the local jitter buffer and freezes video",
			Cell:        "mosolabs",
			Dynamics: []Dynamic{
				&WiredDelaySurge{Leg: DL, Start: 10 * sim.Second, End: 11500 * sim.Millisecond, Extra: 280 * sim.Millisecond},
			},
			Provokes: []string{"jitter_buffer_drain"},
		},
		{
			Name:        "rtcp-stall",
			Description: "400 ms RTCP-only delay on the DL wired leg stalls feedback: outstanding bytes fill the window",
			Cell:        "mosolabs",
			Dynamics: []Dynamic{
				&WiredDelaySurge{Leg: DL, Start: 10 * sim.Second, End: 13 * sim.Second, Extra: 400 * sim.Millisecond, RTCPOnly: true},
			},
			Provokes: []string{"outstanding_bytes_up"},
		},
		{
			Name:        "worst-case-combined",
			Description: "everything at once on the busy FDD cell: DL SNR ramp, grant starvation, UE-share squeeze, 70% cross burst, RRC release",
			Cell:        "tmobile-fdd",
			Dynamics: []Dynamic{
				&SNRRamp{Dir: DL, Start: 8 * sim.Second, End: 12 * sim.Second, DeltaDB: -10},
				&GrantPolicyShift{At: 10 * sim.Second, Grants: mac.GrantConfig{
					SchedulingDelay: 30 * sim.Millisecond,
					BSRPeriod:       4 * sim.Millisecond,
					MaxGrantBytes:   2000,
				}},
				&UEShareDrop{Start: 14 * sim.Second, End: 22 * sim.Second, Share: 0.15},
				&CrossTrafficBurst{Dir: DL, Start: 14 * sim.Second, End: 18 * sim.Second, Fraction: 0.7},
				&RRCRelease{At: 20 * sim.Second},
			},
			Provokes: []string{"cross_traffic", "rrc_state_change"},
		},
	}
}
