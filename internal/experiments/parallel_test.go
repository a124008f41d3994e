package experiments

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/sim"
)

func TestDeriveSeed(t *testing.T) {
	s := DeriveSeed(7, "Amarisoft 38MHz TDD", 3)
	if s != DeriveSeed(7, "Amarisoft 38MHz TDD", 3) {
		t.Fatal("DeriveSeed is not stable")
	}
	if s == 0 {
		t.Fatal("derived seed must be nonzero")
	}
	if s == DeriveSeed(7, "Amarisoft 38MHz TDD", 4) {
		t.Fatal("session index must change the seed")
	}
	if s == DeriveSeed(7, "Mosolabs 20MHz TDD", 3) {
		t.Fatal("cell name must change the seed")
	}
	if s == DeriveSeed(8, "Amarisoft 38MHz TDD", 3) {
		t.Fatal("base seed must change the seed")
	}
	// The zero-avoidance path: using the hash itself as the base makes
	// base ^ hash == 0, which must still yield a usable nonzero seed.
	if DeriveSeed(DeriveSeed(0, "x", 0), "x", 0) == 0 {
		t.Fatal("zero seed escaped")
	}
}

// TestRunParallelDeterministicAcrossWorkers is the engine's core
// guarantee: for a fixed seed, the artifact bytes are identical whether
// the batch runs sequentially or over 2 or 8 workers. The ID sample
// covers every fan-out shape — preset fan-out (table1, fig8), the
// (preset × session) analyzer grid (fig10), a single-session runner
// (fig2), and a pure-computation runner (fig11).
func TestRunParallelDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"table1", "fig2", "fig8", "fig10", "fig11"}
	opts := Options{Duration: 12 * sim.Second, Seed: 11, Sessions: 2}

	opts.Workers = 1
	base, err := RunParallel(ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(ids) {
		t.Fatalf("got %d results, want %d", len(base), len(ids))
	}
	for i, res := range base {
		if res.ID != ids[i] {
			t.Fatalf("slot %d holds %q, want %q", i, res.ID, ids[i])
		}
		if len(res.Text) == 0 {
			t.Fatalf("%s: empty artifact", res.ID)
		}
	}
	for _, workers := range []int{2, 8} {
		opts.Workers = workers
		got, err := RunParallel(ids, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i].Text != base[i].Text {
				t.Fatalf("workers=%d: %s diverged from sequential output:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					workers, base[i].ID, base[i].Text, got[i].Text)
			}
		}
	}
}

// TestRunAllMatchesRunParallel pins the batch engine over every ID:
// results in catalog order, the same artifact bytes as one-ID calls.
func TestRunAllMatchesRunParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration is slow")
	}
	opts := Options{Duration: 10 * sim.Second, Seed: 3, Workers: 4}
	all, err := RunParallel(IDs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(all) != len(ids) {
		t.Fatalf("RunParallel returned %d results, want %d", len(all), len(ids))
	}
	for i, res := range all {
		if res.ID != ids[i] {
			t.Fatalf("slot %d holds %q, want catalog order %q", i, res.ID, ids[i])
		}
	}
	// Spot-check one artifact against a lone sequential run.
	single, err := runOne("table1", Options{Duration: 10 * sim.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, res := range all {
		if res.ID == "table1" {
			found = true
			if res.Text != single.Text {
				t.Fatal("batch artifact differs from single sequential run")
			}
		}
	}
	if !found {
		t.Fatal("table1 missing from the batch output")
	}
}

// TestSharedGroupsMatchLoneRuns pins the groups one run shares: the
// four runners that read the preset groups, run together on two workers
// (so one may wait on a group another is analyzing), render the bytes
// each renders in a run of its own, which analyzes its groups itself.
func TestSharedGroupsMatchLoneRuns(t *testing.T) {
	ids := []string{"fig10", "table2", "table4", "headline"}
	opts := Options{Duration: 8 * sim.Second, Seed: 5, Sessions: 2, Workers: 2}
	shared, err := RunParallel(ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		alone, err := runOne(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if shared[i].Text != alone.Text {
			t.Fatalf("%s: shared groups render\n%s\nalone\n%s", id, shared[i].Text, alone.Text)
		}
	}
}

func TestRunParallelUnknownIDFailsFast(t *testing.T) {
	_, err := RunParallel([]string{"fig11", "fig99"}, Options{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("unknown id not reported: %v", err)
	}
}

// TestRunRunnersErrorPropagation injects a failing runner into the pool
// and checks that the failure of the lowest-index runner surfaces,
// wrapped with its ID, while healthy runners are unaffected.
func TestRunRunnersErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	ok := func(Options) (Result, error) { return Result{ID: "ok", Text: "x"}, nil }
	fail := func(Options) (Result, error) { return Result{}, boom }
	for _, workers := range []int{1, 4} {
		_, err := runRunners(
			[]string{"a", "b", "c", "d"},
			[]Runner{ok, fail, ok, fail},
			Options{Duration: sim.Second, Seed: 1, Workers: workers},
		)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error not propagated: %v", workers, err)
		}
		if !strings.Contains(err.Error(), "experiments: b:") {
			t.Fatalf("workers=%d: lowest failing ID not named: %v", workers, err)
		}
	}
}

// TestRunRunnersRespectsWorkerBudget pins -workers N as a total: the
// calling goroutine counts as one of the N, across the experiment
// fan-out and the session fan-outs nested inside it. Each leaf holds
// its slot for a moment so that a pool one too wide is seen to overlap;
// passing never depends on that timing.
func TestRunRunnersRespectsWorkerBudget(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var inFlight, peak atomic.Int64
		runner := func(o Options) (Result, error) {
			return Result{}, o.forEach(4, func(int) error {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(5 * time.Millisecond)
				inFlight.Add(-1)
				return nil
			})
		}
		ids := []string{"a", "b", "c", "d", "e", "f"}
		runners := []Runner{runner, runner, runner, runner, runner, runner}
		if _, err := runRunners(ids, runners, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(workers) {
			t.Errorf("Workers=%d: %d tasks in flight at once", workers, p)
		}
	}
}
