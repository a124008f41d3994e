package main

import "time"

// The committed benchmark configuration. Everything a result depends on
// besides the seed and the commit lives here, so two runs of one commit
// differ only in noise. Nothing in this file is read from flags.

const (
	// callSeconds is the simulated length of every corpus call.
	callSeconds = 10
	// seedsPerScenario derived seeds per registered scenario; the corpus
	// is len(scenario.Names()) × seedsPerScenario traces.
	seedsPerScenario = 2

	// chunksPerCall × chunkSimSeconds = callSeconds: fleet-live streams a
	// call as 20 resumable chunks of 0.5 s sim-time, one due every
	// chunkEvery of wall time.
	chunksPerCall   = 20
	chunkSimSeconds = 0.5
	chunkEvery      = 50 * time.Millisecond

	// detectLimitMs is the latency limit sustained_sessions_per_s holds
	// detect_p99_ms to; lagGrowthLimit is how much the generator's median
	// lateness may grow from the first to the last third of a phase
	// before the phase counts as backlogged (half a chunk period).
	detectLimitMs  = 100.0
	lagGrowthLimit = chunkEvery / 2

	// preloadRows is how many reports each query-mix node recovers from
	// its bench-written journal at boot, spread over preloadSpan of fleet
	// time ending preloadGap before fixedClock.
	preloadRows = 25000
	preloadSpan = 24 * time.Hour
	preloadGap  = 60 * time.Second
	// fixedClock pins the query-mix nodes' fleet clock (the value the
	// repo's smoke scripts use), so live rows land at a known time and
	// every timed query can exclude them with to=.
	fixedClock = int64(1754000000000000)

	// writerEvery is the query-mix writer's period: 5 binary sessions/s.
	writerEvery = 200 * time.Millisecond
	// similarPool similar-incident probes are drawn and answered by the
	// reference stores during set-up. Similar is the store's costliest
	// read (it ranks every retained row), so the pool is kept small to
	// keep set-up short. The /query pools are a fixed grid, see
	// buildPreload.
	similarPool = 8

	// setupRounds full set-ups are timed per run; setup_s is their median.
	setupRounds = 3
)

// runSeconds is BENCHMARK.json's run_seconds: the --seconds the driver
// passes, for which the windows and the run-time budget are sized.
const runSeconds = 20

// windows are the ISSUE's stated measurement windows. The contract's
// total-time cap (4 + 22 × 4 runs inside 3420 s, set-up included) is
// tighter than them, so every window shrinks by the one common factor
// --seconds/statedWindow; no workload is dropped.
const (
	statedWindow = 30 * time.Second
	statedWarmup = 3 * time.Second
	// tracedShare of a traced run's --seconds is the workload window;
	// the rest is split between the in-process layer replay and, on the
	// balancer workloads, the in-process balancer pass.
	tracedShare = 2.0 / 3
)

// liveRates are fleet-live's three offered loads in sessions/s. They
// were calibrated once (bench/baseline/calibration.json: closed-loop
// chunk capacity on seed 1, then ≈25/50/80 % of it) and are frozen.
var liveRates = [3]float64{4, 8, 12}

// queryMix is the seeded read mix of query-mix, in percent.
var queryMix = []struct {
	kind string
	pct  int
}{
	{"top_chains", 40},
	{"cause_rates", 20},
	{"records", 20},
	{"similar", 15},
	{"scrape", 5},
}

// Child flags, fixed here and echoed in every output. %s placeholders
// are the bind address and the journal path chosen per run.
var (
	bulkNodeFlags  = []string{"-store-journal", "off", "-log-format", "json"}
	liveNodeFlags  = []string{"-store-sync", "1", "-checkpoint-every", "0", "-log-format", "json"}
	queryNodeFlags = []string{"-store-sync", "1", "-checkpoint-every", "0", "-fixed-clock", "1754000000000000", "-log-format", "json"}
	lbFlags        = []string{"-health-interval", "1s", "-log-format", "json"}
)

// workloadNames in contract order.
var workloadNames = []string{"bulk-binary", "bulk-jsonl", "fleet-live", "query-mix"}
