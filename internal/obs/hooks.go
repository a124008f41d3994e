package obs

// Hooks is the per-session pipeline seam: internal/core fires the
// node/chain run transitions and internal/stream the window
// evaluations of one session, the events a flight recorder keeps
// (internal/node's implementation records into a FlightRecorder and
// bumps registry counters, both zero-alloc). It is the only live way
// out of the detection engine — the other is the report — so library
// callers install it too (the domino façade's StreamHooks). A layer's
// totals are not hooks but its Stats, read at scrape time. Every publishing site is
// nil-guarded, so a layer with no hooks installed pays one predictable
// branch and nothing else, and implementations are expected to stay
// allocation-free so the zero-alloc numbers hold with hooks on.
//
// Times are sim.Time microseconds as int64 — obs sits below
// internal/sim and keeps its stdlib-only dependency rule.
//
// Implementations embed NopHooks and override what they observe.
type Hooks interface {
	// WindowEvaluated fires after each detection window [start, end)
	// is evaluated and stepped through the incremental engine.
	WindowEvaluated(start, end int64)
	// NodeFired fires when a causal-graph node's event run opens.
	NodeFired(node string, at int64)
	// NodeRunClosed fires when a node's event run closes after
	// `windows` consecutive windows.
	NodeRunClosed(node string, start, end int64, windows int)
	// ChainRunOpened fires when a causal chain matches, opening a run.
	// chain is the chain's DSL signature ("cause --> ... --> consequence").
	ChainRunOpened(chain string, at int64)
	// ChainRunClosed fires when a chain run closes.
	ChainRunClosed(chain string, start, end int64, windows int)
}

// NopHooks implements Hooks with no-ops; embed it to implement only
// the events a layer observes.
type NopHooks struct{}

// WindowEvaluated implements Hooks.
func (NopHooks) WindowEvaluated(start, end int64) {}

// NodeFired implements Hooks.
func (NopHooks) NodeFired(node string, at int64) {}

// NodeRunClosed implements Hooks.
func (NopHooks) NodeRunClosed(node string, start, end int64, windows int) {}

// ChainRunOpened implements Hooks.
func (NopHooks) ChainRunOpened(chain string, at int64) {}

// ChainRunClosed implements Hooks.
func (NopHooks) ChainRunClosed(chain string, start, end int64, windows int) {}
