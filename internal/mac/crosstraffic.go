package mac

import (
	"sort"

	"github.com/domino5g/domino/internal/sim"
)

// CrossTrafficConfig shapes the PRB demand of background UEs sharing
// the cell. The paper attributes 28% of commercial-cell degradations to
// cross traffic; the heavily-utilized T-Mobile FDD cell shows strong
// asymmetric (DL-dominant) cross load.
type CrossTrafficConfig struct {
	// UEs is the number of background users.
	UEs int `json:"ues"`
	// BurstRate is the expected bursts per minute per UE.
	BurstRate float64 `json:"burst_rate"`
	// BurstDuration is the mean burst length.
	BurstDuration sim.Time `json:"burst_duration_us"`
	// BurstPRBFraction is the mean fraction of the carrier a bursting
	// UE demands.
	BurstPRBFraction float64 `json:"burst_prb_fraction"`
	// BaselineFraction is the always-on background demand fraction
	// (light chatter from idle-ish UEs).
	BaselineFraction float64 `json:"baseline_fraction"`
}

// QuietCell returns a no-cross-traffic profile (private cells in the
// paper carried only the experiment UE).
func QuietCell() CrossTrafficConfig { return CrossTrafficConfig{} }

// BusyCommercialDL returns the heavy, bursty downlink load of the
// T-Mobile 15 MHz FDD cell.
func BusyCommercialDL() CrossTrafficConfig {
	return CrossTrafficConfig{
		UEs:              8,
		BurstRate:        5,
		BurstDuration:    900 * sim.Millisecond,
		BurstPRBFraction: 0.55,
		BaselineFraction: 0.18,
	}
}

// LightCommercialUL returns the lighter uplink load commercial cells
// carry.
func LightCommercialUL() CrossTrafficConfig {
	return CrossTrafficConfig{
		UEs:              4,
		BurstRate:        1.2,
		BurstDuration:    400 * sim.Millisecond,
		BurstPRBFraction: 0.2,
		BaselineFraction: 0.05,
	}
}

// CrossTraffic produces per-slot background PRB demand. Demand is the
// sum of a baseline and per-UE on/off bursts with exponential
// inter-arrivals and jittered durations.
type CrossTraffic struct {
	cfg      CrossTrafficConfig
	rng      *sim.RNG
	totalPRB int

	burstEnds []sim.Time // active burst end times (one per bursting UE)
	nextCheck sim.Time
	scripted  []scriptedBurst
}

type scriptedBurst struct {
	start, end sim.Time
	fraction   float64
}

// NewCrossTraffic builds a generator for a carrier with totalPRB
// resource blocks.
func NewCrossTraffic(cfg CrossTrafficConfig, totalPRB int, rng *sim.RNG) *CrossTraffic {
	return &CrossTraffic{cfg: cfg, rng: rng.Fork(), totalPRB: totalPRB}
}

// SetConfig replaces the generator's stochastic profile from the next
// DemandPRBs call onward. Bursts already in flight keep their end
// times; only arrival statistics and demand fractions change. Scenario
// dynamics schedule this on the simulation engine to model load-regime
// shifts (e.g. a quiet cell entering rush hour mid-call).
func (ct *CrossTraffic) SetConfig(cfg CrossTrafficConfig) { ct.cfg = cfg }

// Config returns the generator's current profile.
func (ct *CrossTraffic) Config() CrossTrafficConfig { return ct.cfg }

// ScriptBurst injects a deterministic background load of the given
// carrier fraction during [start, end) — used by the Fig. 13 scenario.
func (ct *CrossTraffic) ScriptBurst(start, end sim.Time, fraction float64) {
	ct.scripted = append(ct.scripted, scriptedBurst{start, end, fraction})
	sort.Slice(ct.scripted, func(i, j int) bool { return ct.scripted[i].start < ct.scripted[j].start })
}

// DemandPRBs returns the background PRB demand for the slot at now.
func (ct *CrossTraffic) DemandPRBs(now sim.Time, slotDuration sim.Time) int {
	demand := ct.cfg.BaselineFraction * float64(ct.totalPRB)

	if ct.cfg.UEs > 0 && ct.cfg.BurstRate > 0 {
		// Expire finished bursts.
		live := ct.burstEnds[:0]
		for _, end := range ct.burstEnds {
			if end > now {
				live = append(live, end)
			}
		}
		ct.burstEnds = live
		// New burst arrivals: Poisson thinning per slot across UEs.
		perSlot := float64(ct.cfg.UEs) * ct.cfg.BurstRate / 60 * float64(slotDuration) / float64(sim.Second)
		if ct.rng.Bool(perSlot) {
			ct.burstEnds = append(ct.burstEnds, now+ct.rng.Jitter(ct.cfg.BurstDuration, 0.5))
		}
		for range ct.burstEnds {
			demand += ct.rng.Uniform(0.7, 1.3) * ct.cfg.BurstPRBFraction * float64(ct.totalPRB)
		}
	}

	for _, s := range ct.scripted {
		if now >= s.start && now < s.end {
			demand += s.fraction * float64(ct.totalPRB)
		}
	}

	d := int(demand)
	if d > ct.totalPRB {
		d = ct.totalPRB
	}
	if d < 0 {
		d = 0
	}
	return d
}
