package core

import (
	"fmt"
	"slices"

	"github.com/domino5g/domino/internal/parallel"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// Analyzer is the Domino detection engine: window geometry + event
// thresholds + causal graph.
//
// An Analyzer is immutable after NewAnalyzer and safe for concurrent
// use: Analyze only reads the configuration and graph and builds all
// per-trace state locally, so one Analyzer may serve any number of
// goroutines (see AnalyzeBatch). Callers must not mutate the Graph
// passed to NewAnalyzer afterwards.
type Analyzer struct {
	cfg    DetectorConfig
	graph  *Graph
	chains []Chain
	comp   compiledGraph
}

// NewAnalyzer builds an analyzer. A nil graph selects the paper's
// default Fig. 9 graph; a zero field of cfg selects its Table 5 value. A
// value DetectorConfig refuses is an error that names the field and the
// rule.
func NewAnalyzer(cfg DetectorConfig, graph *Graph) (*Analyzer, error) {
	cfg = cfg.normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if graph == nil {
		graph = DefaultGraph()
	}
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	chains := graph.EnumerateChains()
	return &Analyzer{
		cfg:    cfg,
		graph:  graph,
		chains: chains,
		comp:   compileGraph(graph, chains),
	}, nil
}

// compiledGraph is the causal DAG pre-resolved to index form, computed
// once per Analyzer so the per-window Step touches no strings or maps:
// nodes get dense integer IDs, every node's (alias-expanded) feature
// set becomes one FeatureBits mask, and chains become node-ID lists.
type compiledGraph struct {
	nodes        []string      // graph.Nodes() order; index = node ID
	nodeMask     []FeatureBits // per node: OR of its canonical features
	consequences []int         // consequence node IDs, stable order
	chainNodes   [][]int32     // per chain (ID-1): node IDs on the path
	chainCauseID []int32       // per chain: index into causes
	chainSigs    []string      // per chain: Chain.String(), precomputed
	causes       []string      // distinct chain causes, ascending
}

// compileGraph resolves the graph, and is the one code that resolves a
// feature or node name. A node's mask ORs the bits of every canonical
// feature (a featureNames entry) its alias expansion reaches. Names that
// reach none get a zero mask and are never active.
func compileGraph(g *Graph, chains []Chain) compiledGraph {
	nodes := g.Nodes()
	id := make(map[string]int, len(nodes))
	for i, n := range nodes {
		id[n] = i
	}
	cg := compiledGraph{nodes: nodes, nodeMask: make([]FeatureBits, len(nodes))}
	var resolve func(name string, seen map[string]bool) FeatureBits
	resolve = func(name string, seen map[string]bool) FeatureBits {
		if members, ok := g.aliases[name]; ok {
			if seen[name] {
				return 0
			}
			seen[name] = true
			var m FeatureBits
			for _, mem := range members {
				m |= resolve(mem, seen)
			}
			delete(seen, name)
			return m
		}
		var b FeatureBits
		if i := slices.Index(featureNames, name); i >= 0 {
			b.Set(i)
		}
		return b
	}
	seen := make(map[string]bool)
	for i, n := range nodes {
		cg.nodeMask[i] = resolve(n, seen)
	}
	for _, n := range g.Consequences() {
		cg.consequences = append(cg.consequences, id[n])
	}
	causeID := make(map[string]int)
	for _, c := range chains {
		if _, ok := causeID[c.Cause()]; !ok {
			causeID[c.Cause()] = 0
			cg.causes = append(cg.causes, c.Cause())
		}
	}
	slices.Sort(cg.causes)
	for i, name := range cg.causes {
		causeID[name] = i
	}
	for _, c := range chains {
		ids := make([]int32, len(c.Nodes))
		for k, n := range c.Nodes {
			ids[k] = int32(id[n])
		}
		cg.chainNodes = append(cg.chainNodes, ids)
		cg.chainCauseID = append(cg.chainCauseID, int32(causeID[c.Cause()]))
		cg.chainSigs = append(cg.chainSigs, c.String())
	}
	return cg
}

// Graph returns the analyzer's causal graph.
func (a *Analyzer) Graph() *Graph { return a.graph }

// Chains returns the enumerated causal chains.
func (a *Analyzer) Chains() []Chain { return a.chains }

// Config returns the normalized detector configuration.
func (a *Analyzer) Config() DetectorConfig { return a.cfg }

// WindowResult is the detection output for one window position.
type WindowResult struct {
	Vector FeatureVector
	// Consequences lists consequence-class nodes active in the window.
	Consequences []string
	// Causes lists cause nodes reached by backward tracing from an
	// active consequence through fully-active chains.
	Causes []string
	// ChainIDs lists matched chain IDs (every node active).
	ChainIDs []int
}

// EventRun is a maximal run of consecutive windows in which the same
// node (or chain) stayed active — the unit Domino counts as one event,
// collapsing the W/Δt-fold multiplicity of the sliding window.
type EventRun struct {
	Node       string
	Start, End sim.Time
	Windows    int
}

// ChainRun is a maximal run of windows matching one chain.
type ChainRun struct {
	Chain      Chain
	Start, End sim.Time
	Windows    int
}

// Report is the full analysis result for one trace set.
type Report struct {
	CellName string
	// Scenario labels the report with the generating scenario's name
	// when the trace carried one, so multi-scenario sweeps stay
	// attributable.
	Scenario string
	Duration sim.Time
	Windows  []WindowResult

	// NodeEvents are collapsed event runs per node (causes,
	// intermediates, consequences, and raw features).
	NodeEvents map[string][]EventRun
	// ChainEvents are collapsed runs per chain ID.
	ChainEvents map[int][]ChainRun

	chains []Chain
}

// Analyze runs Domino over a sorted trace set. It is the batch driver
// of the incremental engine: one full index, then Step per window (see
// Incremental for the streaming driver — both produce identical
// reports for the same records by construction).
func (a *Analyzer) Analyze(set *trace.Set) (*Report, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid trace: %w", err)
	}
	ix := newIndexedTrace(set, a.cfg)
	inc := a.NewIncremental(set.CellName)
	inc.SetScenario(set.Scenario)
	end := set.Duration - a.cfg.Window
	for start := sim.Time(0); start <= end; start += a.cfg.Step {
		inc.Step(ix.evalWindow(start))
	}
	return inc.Finish(set.Duration), nil
}

// AnalyzeBatch analyzes independent trace sets concurrently across the
// given number of workers (<= 0 selects GOMAXPROCS) and returns the
// reports in input order. Report i is always sets[i]'s report, so the
// output is identical to calling Analyze in a loop; on failure the
// error of the lowest-index failing set is returned.
func (a *Analyzer) AnalyzeBatch(workers int, sets ...*trace.Set) ([]*Report, error) {
	out := make([]*Report, len(sets))
	err := parallel.ForEach(workers, len(sets), func(i int) error {
		rep, err := a.Analyze(sets[i])
		if err != nil {
			return fmt.Errorf("core: set %d (%s): %w", i, sets[i].CellName, err)
		}
		out[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EventCount returns the number of collapsed event runs for a node.
func (r *Report) EventCount(node string) int { return len(r.NodeEvents[node]) }

// EventsPerMinute returns the collapsed event rate for a node (Fig. 10).
func (r *Report) EventsPerMinute(node string) float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(len(r.NodeEvents[node])) / r.Duration.Seconds() * 60
}

// TotalChainEvents returns the number of collapsed chain runs.
func (r *Report) TotalChainEvents() int {
	n := 0
	for _, runs := range r.ChainEvents {
		n += len(runs)
	}
	return n
}

// DegradationEventsPerMinute counts consequence events per minute — the
// paper's headline "≈5 video quality degradation events per session per
// minute" metric.
func (r *Report) DegradationEventsPerMinute(consequences []string) float64 {
	n := 0
	for _, c := range consequences {
		n += len(r.NodeEvents[c])
	}
	if r.Duration <= 0 {
		return 0
	}
	return float64(n) / r.Duration.Seconds() * 60
}
