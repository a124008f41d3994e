package ran

import (
	"fmt"
	"slices"
	"strings"

	"github.com/domino5g/domino/internal/mac"
	"github.com/domino5g/domino/internal/phy"
	"github.com/domino5g/domino/internal/rrc"
	"github.com/domino5g/domino/internal/sim"
)

// The four cells of Table 1. Parameters follow the paper's narrative:
//
//   - T-Mobile 15 MHz FDD (622.85 MHz): heavily utilized low-band cell
//     with strong, bursty DL cross traffic and intermittent spurious
//     RRC releases. Small TBS ⇒ >10 TBs per video frame ⇒ large delay
//     spread (Fig. 14b).
//   - T-Mobile 100 MHz TDD (2506.95 MHz): wide mid-band carrier, light
//     cross traffic, large TBS ⇒ small delay spread (Fig. 14a).
//   - Amarisoft 20 MHz TDD (3547.20 MHz): private cell, no cross
//     traffic, persistently poor UL channel plus conservative UL MCS
//     selection ⇒ low UL bitrate, frequent HARQ and RLC retx. The only
//     cell with gNB (RLC-layer) logs.
//   - Mosolabs 20 MHz TDD (3630.72 MHz): private cell, healthy
//     channel, proactive UL grants (Fig. 16).

// TMobileFDD returns the T-Mobile 15 MHz FDD cell configuration.
func TMobileFDD() CellConfig {
	ul := phy.DefaultGoodChannel()
	ul.MeanSNRdB = 19
	dl := phy.DefaultGoodChannel()
	dl.MeanSNRdB = 20
	return CellConfig{
		Name:         "T-Mobile 15MHz FDD",
		Numerology:   phy.SCS15kHz,
		BandwidthMHz: 15,
		Frame:        mac.FDD(),
		ULGrants: mac.GrantConfig{
			SchedulingDelay: 8 * sim.Millisecond,
			BSRPeriod:       2 * sim.Millisecond,
			MaxGrantBytes:   4000,
		},
		HARQ:           mac.HARQConfig{RTT: 8 * sim.Millisecond, MaxAttempts: 5},
		RLCStatusDelay: 55 * sim.Millisecond,
		ULChannel:      ul,
		DLChannel:      dl,
		ULLinkAdapt:    LinkAdaptConfig{Backoff: 1, ReportInterval: 20 * sim.Millisecond},
		DLLinkAdapt:    LinkAdaptConfig{Backoff: 0, ReportInterval: 20 * sim.Millisecond},
		ULCross:        mac.LightCommercialUL(),
		DLCross:        mac.BusyCommercialDL(),
		RRC:            rrc.Flaky(0.35),
		MaxUEShare:     0.5,
		HasGNBLog:      false,
	}
}

// TMobileTDD returns the T-Mobile 100 MHz TDD cell configuration.
func TMobileTDD() CellConfig {
	ul := phy.DefaultGoodChannel()
	ul.MeanSNRdB = 21
	dl := phy.DefaultGoodChannel()
	dl.MeanSNRdB = 23
	cross := mac.CrossTrafficConfig{
		UEs: 5, BurstRate: 2, BurstDuration: 600 * sim.Millisecond,
		BurstPRBFraction: 0.3, BaselineFraction: 0.08,
	}
	return CellConfig{
		Name:         "T-Mobile 100MHz TDD",
		Numerology:   phy.SCS30kHz,
		BandwidthMHz: 100,
		Frame:        mac.TDD("DDDSU"),
		ULGrants: mac.GrantConfig{
			SchedulingDelay: 14 * sim.Millisecond,
			BSRPeriod:       2500 * sim.Microsecond,
			MaxGrantBytes:   40000,
		},
		HARQ:           mac.HARQConfig{RTT: 8 * sim.Millisecond, MaxAttempts: 5},
		RLCStatusDelay: 55 * sim.Millisecond,
		ULChannel:      ul,
		DLChannel:      dl,
		ULLinkAdapt:    LinkAdaptConfig{Backoff: 1, ReportInterval: 20 * sim.Millisecond},
		DLLinkAdapt:    LinkAdaptConfig{Backoff: 0, ReportInterval: 20 * sim.Millisecond},
		ULCross:        mac.LightCommercialUL(),
		DLCross:        cross,
		RRC:            rrc.Stable(),
		MaxUEShare:     0.5,
		HasGNBLog:      false,
	}
}

// Amarisoft returns the Amarisoft Callbox private cell configuration.
func Amarisoft() CellConfig {
	dl := phy.DefaultGoodChannel()
	dl.MeanSNRdB = 22
	return CellConfig{
		Name:         "Amarisoft 20MHz TDD",
		Numerology:   phy.SCS30kHz,
		BandwidthMHz: 20,
		Frame:        mac.TDD("DDDSU"),
		ULGrants: mac.GrantConfig{
			SchedulingDelay: 18 * sim.Millisecond,
			BSRPeriod:       2500 * sim.Microsecond,
			MaxGrantBytes:   9000,
		},
		HARQ:           mac.HARQConfig{RTT: 10 * sim.Millisecond, MaxAttempts: 5},
		RLCStatusDelay: 55 * sim.Millisecond,
		ULChannel:      phy.DefaultPoorChannel(),
		DLChannel:      dl,
		// Conservative UL MCS selection (§5.1.1): large backoff.
		ULLinkAdapt: LinkAdaptConfig{Backoff: 4, ReportInterval: 20 * sim.Millisecond},
		DLLinkAdapt: LinkAdaptConfig{Backoff: 0, ReportInterval: 20 * sim.Millisecond},
		ULCross:     mac.QuietCell(),
		DLCross:     mac.QuietCell(),
		RRC:         rrc.Stable(),
		MaxUEShare:  0.9,
		HasGNBLog:   true,
	}
}

// Mosolabs returns the Mosolabs Canopy private cell configuration.
func Mosolabs() CellConfig {
	ul := phy.DefaultGoodChannel()
	ul.MeanSNRdB = 20
	dl := phy.DefaultGoodChannel()
	dl.MeanSNRdB = 22
	return CellConfig{
		Name:         "Mosolabs 20MHz TDD",
		Numerology:   phy.SCS30kHz,
		BandwidthMHz: 20,
		Frame:        mac.TDD("DDDSU"),
		ULGrants: mac.GrantConfig{
			SchedulingDelay: 15 * sim.Millisecond,
			BSRPeriod:       2500 * sim.Microsecond,
			MaxGrantBytes:   9000,
			Proactive:       true,
			ProactivePeriod: 5 * sim.Millisecond,
			ProactiveBytes:  900,
		},
		HARQ:           mac.HARQConfig{RTT: 9 * sim.Millisecond, MaxAttempts: 5},
		RLCStatusDelay: 55 * sim.Millisecond,
		ULChannel:      ul,
		DLChannel:      dl,
		ULLinkAdapt:    LinkAdaptConfig{Backoff: 1, ReportInterval: 20 * sim.Millisecond},
		DLLinkAdapt:    LinkAdaptConfig{Backoff: 0, ReportInterval: 20 * sim.Millisecond},
		ULCross:        mac.QuietCell(),
		DLCross:        mac.QuietCell(),
		RRC:            rrc.Stable(),
		MaxUEShare:     0.9,
		HasGNBLog:      false,
	}
}

// cells is the cell catalog in Table 1 order, which is the Presets()
// order, so every artifact rendered from Presets() keeps its historical
// rows. Each cell has a stable slug, optional short aliases, and the
// constructor producing a fresh CellConfig.
var cells = []struct {
	slug    string
	aliases []string
	build   func() CellConfig
}{
	{"tmobile-tdd", []string{"tdd"}, TMobileTDD},
	{"tmobile-fdd", []string{"fdd"}, TMobileFDD},
	{"amarisoft", nil, Amarisoft},
	{"mosolabs", nil, Mosolabs},
}

// Presets returns the four paper cells in Table 1 order.
func Presets() []CellConfig {
	out := make([]CellConfig, len(cells))
	for i, e := range cells {
		out[i] = e.build()
	}
	return out
}

// CellNames returns the cell slugs in Table 1 order.
func CellNames() []string {
	out := make([]string, len(cells))
	for i, e := range cells {
		out[i] = e.slug
	}
	return out
}

// PresetByName looks up a cell case-insensitively by slug
// ("tmobile-fdd"), alias ("fdd"), or full Table 1 name ("T-Mobile
// 15MHz FDD"), ignoring surrounding space. Unknown names report the
// valid slugs.
func PresetByName(name string) (CellConfig, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, e := range cells {
		cfg := e.build()
		if n == e.slug || n == strings.ToLower(cfg.Name) || slices.Contains(e.aliases, n) {
			return cfg, nil
		}
	}
	return CellConfig{}, fmt.Errorf("ran: unknown cell preset %q (valid: %s)",
		name, strings.Join(CellNames(), ", "))
}
