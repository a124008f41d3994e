package experiments

import (
	"fmt"
	"strings"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/stats"
)

// scenariosCatalog runs every catalog scenario through the full
// pipeline — build, simulate, Domino analysis — and tabulates which
// causes dominate each one. It is the extensibility counterpart of the
// Table 1 aggregates: the same substrate, but over the whole scenario
// catalog instead of the four static presets. Each scenario's seed
// derives from its name, so the artifact is byte-identical for a given
// Options.Seed at any worker count.
func scenariosCatalog(o Options) (Result, error) {
	analyzer, err := core.NewAnalyzer(core.DetectorConfig{}, nil)
	if err != nil {
		return Result{}, err
	}
	scenarios := scenario.All()
	type row struct {
		name, cell, topCause string
		degPerMin            float64
		chainEvents          int
	}
	rows := make([]row, len(scenarios))
	err = o.forEach(len(scenarios), func(i int) error {
		s := scenarios[i]
		sess, err := s.Build(DeriveSeed(o.Seed, "scenario:"+s.Name, 0))
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		set := sess.Run(o.Duration)
		rep, err := analyzer.Analyze(set)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		top, topRate := "-", 0.0
		for _, c := range core.CauseClasses() {
			if r := rep.EventsPerMinute(c); r > topRate {
				top, topRate = c, r
			}
		}
		rows[i] = row{
			name:        s.Name,
			cell:        s.Cell,
			topCause:    top,
			degPerMin:   rep.DegradationEventsPerMinute(core.ConsequenceClasses()),
			chainEvents: rep.TotalChainEvents(),
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	var b strings.Builder
	tb := stats.NewTable("Scenario", "Cell", "Top cause", "Degradation ev/min", "Chain events")
	for _, r := range rows {
		tb.AddRow(r.name, r.cell, r.topCause, r.degPerMin, r.chainEvents)
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\n%d scenarios registered (%d dynamic kinds available)\n",
		len(scenarios), len(scenario.DynamicKinds()))
	return Result{
		Title: "Scenario catalog — per-scenario root-cause profile over the registered workloads",
		PaperRef: "extends Table 1/Fig. 10 beyond the four static cells: each registered scenario provokes " +
			"a different causal chain of the Fig. 9 graph",
		Text: b.String(),
	}, nil
}
