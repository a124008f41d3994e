package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// setupCost is one set-up's wall time by part. total is setup_s as the
// clock read it, scaled is total on the reference machine: total × the
// capacity of the machine while the set-up ran (probe.go).
type setupCost struct {
	build, corpus, preload, boot, total, scaled time.Duration
	host                                        hostState
	// recover is the part of boot from spawning the first node to every
	// node answering /healthz, which on query-mix is journal recovery.
	recover time.Duration
}

// env is everything a workload runs against: the generated inputs and
// the booted real processes.
type env struct {
	corpus  *corpus
	preload *preload // query-mix only
	fleet   *fleet
	cost    setupCost
}

// setUp does the whole of set-up once, metering the machine meanwhile:
// build the two programs, generate the corpus and its references, write
// the preload journals (query-mix), boot the processes and wait for
// /healthz 200 on each.
func setUp(ctx context.Context, root, workload string, seed int64) (*env, error) {
	m, err := startMeter()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	e, err := boot(ctx, root, workload, seed)
	total := time.Since(t0)
	host, merr := m.finish()
	if err != nil {
		return nil, err
	}
	if merr != nil {
		return nil, merr // main's killAll stops what boot started
	}
	e.cost.total, e.cost.host = total, host
	e.cost.scaled = time.Duration(float64(total) * host.capacity())
	return e, nil
}

// boot is set-up's work; the parts of its cost are booked on the way.
func boot(ctx context.Context, root, workload string, seed int64) (*env, error) {
	e := &env{}
	t0 := time.Now()
	dir, err := newScratch(root)
	if err != nil {
		return nil, err
	}
	e.fleet = &fleet{dir: dir}
	if err := buildBinaries(ctx, root, dir); err != nil {
		return nil, err
	}
	e.cost.build = time.Since(t0)

	t1 := time.Now()
	if e.corpus, err = buildCorpus(seed); err != nil {
		return nil, err
	}
	e.cost.corpus = time.Since(t1)

	t2 := time.Now()
	nodes, nodeFlags, withLB := 1, bulkNodeFlags, false
	switch workload {
	case "fleet-live":
		nodes, nodeFlags, withLB = 2, liveNodeFlags, true
	case "query-mix":
		nodes, nodeFlags, withLB = 2, queryNodeFlags, true
		if e.preload, err = buildPreload(e.corpus, dir, nodes); err != nil {
			return nil, err
		}
	}
	e.cost.preload = time.Since(t2)

	t3 := time.Now()
	bootCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("n%d", i)
		flags := nodeFlags
		if withLB {
			flags = append([]string{"-store-journal", filepath.Join(dir, id+".wal")}, flags...)
		}
		p, err := startNode(dir, id, flags)
		if err != nil {
			return nil, err
		}
		e.fleet.nodes = append(e.fleet.nodes, p)
	}
	for _, p := range e.fleet.nodes {
		if err := p.waitHealthy(bootCtx); err != nil {
			return nil, err
		}
	}
	e.cost.recover = time.Since(t3)
	if e.preload != nil {
		if err := checkRecovered(e.fleet, e.preload.rows); err != nil {
			return nil, err
		}
	}
	e.fleet.entry = e.fleet.nodes[0].url
	if withLB {
		if e.fleet.lb, err = startLB(dir, e.fleet.nodes); err != nil {
			return nil, err
		}
		if err := e.fleet.lb.waitHealthy(bootCtx); err != nil {
			return nil, err
		}
		e.fleet.entry = e.fleet.lb.url
	}
	e.cost.boot = time.Since(t3)
	return e, nil
}

// setUpRounds sets up setupRounds times, tearing the earlier fleets
// down, and returns the last environment with every round's cost: one
// set-up is too short and too build-cache-dependent to report alone.
func setUpRounds(ctx context.Context, root, workload string, seed int64) (*env, []setupCost, error) {
	var costs []setupCost
	for round := 0; ; round++ {
		e, err := setUp(ctx, root, workload, seed)
		if err != nil {
			return nil, nil, err
		}
		costs = append(costs, e.cost)
		if round == setupRounds-1 {
			return e, costs, nil
		}
		e.fleet.stop()
	}
}

// medianCost takes the per-part medians over the rounds.
func medianCost(costs []setupCost) setupCost {
	med := func(get func(setupCost) time.Duration) time.Duration {
		v := make([]float64, len(costs))
		for i, c := range costs {
			v[i] = float64(get(c))
		}
		return time.Duration(medianOf(v))
	}
	return setupCost{
		build:   med(func(c setupCost) time.Duration { return c.build }),
		corpus:  med(func(c setupCost) time.Duration { return c.corpus }),
		preload: med(func(c setupCost) time.Duration { return c.preload }),
		boot:    med(func(c setupCost) time.Duration { return c.boot }),
		recover: med(func(c setupCost) time.Duration { return c.recover }),
		total:   med(func(c setupCost) time.Duration { return c.total }),
		scaled:  med(func(c setupCost) time.Duration { return c.scaled }),
	}
}

// checkRecovered confirms every node came up holding the preloaded rows.
func checkRecovered(f *fleet, rows int) error {
	scrapes, err := scrapeAll(f)
	if err != nil {
		return err
	}
	for _, sc := range scrapes {
		got, _ := find(sc.snap, "dominod_rcastore_rows")
		if int(got.Value) != rows {
			return fmt.Errorf("%s recovered %d rows, want %d", sc.proc, int(got.Value), rows)
		}
	}
	return nil
}
