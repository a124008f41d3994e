package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/parallel"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rtc"
	"github.com/domino5g/domino/internal/trace"
)

// DeriveSeed maps (base seed, cell name, session index) to the seed of
// one simulated session. The derivation depends only on stable keys —
// never on scheduling or iteration order — which is what makes the
// worker-pool fan-out byte-identical to the sequential path: each
// session's randomness is fixed the moment its identity is known.
//
// The result is base ⊕ FNV-1a64(cellName ‖ sessionIdx), nudged away
// from zero because this package reserves a zero seed as "unset"
// (Options.Defaults replaces it), so no derived seed should collide
// with that sentinel.
func DeriveSeed(base uint64, cellName string, sessionIdx int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(cellName))
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(sessionIdx))
	h.Write(idx[:])
	s := base ^ h.Sum64()
	if s == 0 {
		s = 0x9e3779b97f4a7c15 // golden-ratio constant; any fixed nonzero value works
	}
	return s
}

// RunParallel executes the given experiments across opts.Workers
// workers and returns their results in the order the IDs were given.
// All IDs are validated up front so an unknown ID fails fast without
// burning simulation time; a runner failure surfaces as the error of
// the lowest failing ID, matching the sequential path.
func RunParallel(ids []string, opts Options) ([]Result, error) {
	runs := make([]Runner, len(ids))
	for i, id := range ids {
		r, err := lookup(id)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return runRunners(ids, runs, opts)
}

// runRunners is the worker-pool core of RunParallel, split out so tests
// can inject failing runners that are not in the catalog. It stamps
// each result with its id.
//
// Workers is a total budget enforced by a single shared executor: the
// experiment fan-out and every per-experiment session fan-out run as
// nested Map calls on the same pool. Because Map is caller-helps, a
// worker blocked on an inner fan-out executes that fan-out's tasks
// itself, so total parallelism stays at opts.Workers with no static
// outer×inner width split (and no sequential tail when one slow
// experiment remains — its sessions spread over the whole pool). The
// calling goroutine is one of the Workers, so the pool holds the rest.
// Worker counts never affect artifact bytes.
func runRunners(ids []string, runs []Runner, opts Options) ([]Result, error) {
	opts = opts.Defaults()
	if opts.Workers > 1 && opts.exec == nil {
		ex := parallel.NewExecutor(opts.Workers-1, nil)
		defer ex.Close()
		opts.exec = ex
	}
	opts.shared = newShared(opts)
	out := make([]Result, len(ids))
	err := opts.forEach(len(ids), func(i int) error {
		start := time.Now()
		res, err := runs[i](opts)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", ids[i], err)
		}
		res.ID, res.Elapsed = ids[i], time.Since(start)
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// cellRun is one completed simulated call on a preset.
type cellRun struct {
	Cfg  ran.CellConfig
	Sess *rtc.Session
	Set  *trace.Set
}

// shared is what more than one runner of a run reads, made on the first
// ask: the artifacts that read it share one simulation or analysis, and
// one that asks while another makes it waits.
type shared struct {
	groups  [len(groupPresets)]func() (*core.Report, error) // each preset group's merged report
	presets func() ([]cellRun, error)                       // one call per preset, in Presets() order
	pair    func() (callPair, error)                        // the calls Figs. 2-4 compare
}

func newShared(o Options) *shared {
	s := &shared{
		presets: sync.OnceValues(func() ([]cellRun, error) { return runPresetSessions(ran.Presets(), o) }),
		pair:    sync.OnceValues(func() (callPair, error) { return runCallPair(o) }),
	}
	o.shared = s // analyzeGroup reads the preset runs
	for i, presets := range groupPresets {
		s.groups[i] = sync.OnceValues(func() (*core.Report, error) { return analyzeGroup(presets(), o) })
	}
	return s
}

// runPresetSessions simulates one call per preset, fanned out across
// o.Workers workers. Slot i always holds preset i's run and each run's
// seed derives from the preset name, so the assembled slice — and any
// artifact rendered from it in slot order — is independent of worker
// count.
func runPresetSessions(presets []ran.CellConfig, o Options) ([]cellRun, error) {
	out := make([]cellRun, len(presets))
	err := o.forEach(len(presets), func(i int) error {
		cfg := presets[i]
		s, set, err := runCellSession(cfg, o.Duration, DeriveSeed(o.Seed, cfg.Name, 0))
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		out[i] = cellRun{Cfg: cfg, Sess: s, Set: set}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
