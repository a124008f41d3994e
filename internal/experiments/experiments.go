// Package experiments regenerates every table and figure of the
// paper's evaluation from the simulator substrate: the motivation
// experiments (Figs. 2–6, Table 1), the longitudinal per-cell study
// (Fig. 8, Table 3), the Domino analysis statistics (Fig. 10,
// Tables 2 and 4), the extensibility demo (Fig. 11), and the
// mechanism case studies (Figs. 12–22).
//
// Runners return formatted text artifacts, each beside what the paper
// reports; cmd/experiments prints them, and README's "Parallel
// deterministic experiment engine" section describes how they run.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/domino5g/domino/internal/parallel"
	"github.com/domino5g/domino/internal/sim"
)

// Options tune experiment scale. Defaults keep a full regeneration
// under a couple of minutes; the paper's durations can be approximated
// by raising Duration.
type Options struct {
	// Duration is the per-session call length (default 60 s; the
	// paper's calls are 30 min).
	Duration sim.Time
	// Seed anchors all randomness. Experiments that fan sessions out
	// (the preset and preset×session aggregates) derive each session's
	// stream via DeriveSeed(Seed, cellName, sessionIdx); single-session
	// case studies use Seed directly. Either way the inputs are stable
	// keys, so artifacts are byte-identical for a given Seed regardless
	// of Workers.
	Seed uint64
	// Sessions is the number of calls per cell for aggregate
	// statistics (default 1; the paper used 14 across 4 cells).
	Sessions int
	// Workers is the worker-pool width used both to fan experiments
	// out in RunParallel and to fan sessions out inside a
	// single experiment. Default 1 (fully sequential); any value
	// produces identical artifact text for the same Seed.
	Workers int

	// exec is the shared pool every fan-out in this options scope runs
	// on. runRunners installs one for Workers > 1: because Executor.Map
	// is caller-helps and nestable, the per-experiment session fan-outs
	// ride the same pool — total parallelism stays bounded by Workers
	// with no static outer×inner width split. Nil is the pool of no
	// workers: every fan-out runs in order on its caller.
	exec *parallel.Executor
	// shared is what the runners of one run share; runRunners installs
	// it.
	shared *shared
}

// forEach is the package's single fan-out primitive: indexed, with the
// Executor's determinism contract (per-index output slots, lowest
// failing index's error).
func (o Options) forEach(n int, fn func(i int) error) error {
	return o.exec.Map(n, func(i int, _ any) error { return fn(i) })
}

// Defaults fills zero fields.
func (o Options) Defaults() Options {
	if o.Duration <= 0 {
		o.Duration = 60 * sim.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sessions <= 0 {
		o.Sessions = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Result is one regenerated artifact.
type Result struct {
	// ID is the artifact's catalog id; RunParallel sets it.
	ID    string
	Title string
	// PaperRef summarizes what the paper reports, printed beside Text
	// by cmd/experiments for side-by-side comparison.
	PaperRef string
	// Text is the regenerated table/series. Deterministic in
	// (Options.Seed, Options.Duration, Options.Sessions) and
	// independent of Options.Workers.
	Text string
	// Elapsed is the wall-clock time regenerating this artifact took.
	// It is reporting metadata only and excluded from determinism
	// guarantees.
	Elapsed time.Duration
}

// Runner regenerates one artifact.
type Runner func(Options) (Result, error)

// runners is the artifact catalog in the order IDs() lists it, and so
// the order of cmd/experiments' -list and of a full run's stdout: the
// case studies (Figs. 12–22), the Domino statistics, the longitudinal
// study, the motivation experiments, and the scenario catalog.
var runners = []struct {
	id  string
	run Runner
}{
	{"fig12", fig12}, {"fig13", fig13}, {"fig14", fig14}, {"fig16", fig16}, {"fig17", fig17},
	{"fig18", fig18}, {"fig19", fig19}, {"fig20", fig20}, {"fig21", fig21}, {"fig22", fig22},
	{"fig10", fig10}, {"table2", table2}, {"table4", table4}, {"fig11", fig11}, {"headline", headline},
	{"fig8", fig8}, {"table3", table3},
	{"table1", table1}, {"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4}, {"fig5", fig5}, {"fig6", fig6},
	{"scenarios", scenariosCatalog},
}

// IDs returns all experiment IDs in catalog order.
func IDs() []string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.id
	}
	return out
}

// lookup resolves an experiment ID.
func lookup(id string) (Runner, error) {
	for _, r := range runners {
		if r.id == id {
			return r.run, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}
