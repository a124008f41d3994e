// Package scenario is the declarative workload layer of the Domino
// reproduction: a Scenario names a base cell preset and an ordered
// schedule of timed, per-layer Dynamics (SNR ramps and dips,
// cross-traffic bursts and regime shifts, flaky-RRC phases,
// grant-policy shifts, UE-share squeezes, wired delay surges). The
// paper's diagnosis power comes from exactly these events — DK-Root
// trains on operator datasets spanning many degradation regimes, and
// Patounas et al. inject bottlenecks one layer at a time — so new
// workloads here are data, not code: compose dynamics in Go or load
// them from JSON, and every layer knob that used to be frozen at
// construction becomes a scheduled event on the simulation engine.
//
// Scenarios serialize to JSON and validate themselves. The package
// declares a fixed catalog (catalog.go: the four Table 1 presets, then
// degradation scenarios, each provoking a different causal chain of the
// paper's Fig. 9 graph); a scenario outside it is a JSON file, read by
// Parse. A catalog scenario without dynamics replays byte-identically
// to its base preset at the same seed.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rtc"
)

// Scenario is one declarative workload: a base cell and a dynamics
// schedule. The zero Dynamics slice reproduces the base preset
// exactly.
type Scenario struct {
	// Name is the catalog key (and the label carried by traces and
	// reports generated from this scenario).
	Name string
	// Description is a one-line summary for catalogs and -list output.
	Description string
	// Cell names the base cell preset (ran.PresetByName).
	Cell string
	// Dynamics is the ordered schedule of perturbations.
	Dynamics []Dynamic
	// Provokes lists the causal-graph nodes this scenario is designed
	// to trigger (documentation plus the catalog's self-test contract).
	Provokes []string
}

// Validate checks the scenario: a name, a resolvable base cell, and
// valid dynamics.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if _, err := ran.PresetByName(s.Cell); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	for i, d := range s.Dynamics {
		if d == nil {
			return fmt.Errorf("scenario %q: dynamic %d is nil", s.Name, i)
		}
		if err := d.Validate(); err != nil {
			return fmt.Errorf("scenario %q: dynamic %d (%s): %w", s.Name, i, d.Kind(), err)
		}
	}
	return nil
}

// CellConfig resolves the scenario's base cell preset.
func (s Scenario) CellConfig() (ran.CellConfig, error) { return ran.PresetByName(s.Cell) }

// Build constructs a session for the scenario at the given seed: the
// base preset's default session, labeled with the scenario name, with
// every dynamic armed. Run the session to obtain the trace.
func (s Scenario) Build(seed uint64) (*rtc.Session, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cell, err := s.CellConfig()
	if err != nil {
		return nil, err
	}
	cfg := rtc.DefaultSessionConfig(cell, seed)
	cfg.ScenarioName = s.Name
	sess, err := rtc.NewSession(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	t := &Target{
		Engine:  sess.Engine,
		Cell:    sess.Cell,
		ULWired: sess.ULWired(),
		DLWired: sess.DLWired(),
	}
	for _, d := range s.Dynamics {
		d.Apply(t)
	}
	return sess, nil
}

// dynEnvelope is the serialized form of one dynamic: a type tag and
// the kind-specific parameters.
type dynEnvelope struct {
	Type   string          `json:"type"`
	Params json.RawMessage `json:"params,omitempty"`
}

// scenarioJSON is the serialized form of a Scenario.
type scenarioJSON struct {
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	Cell        string        `json:"cell"`
	Dynamics    []dynEnvelope `json:"dynamics,omitempty"`
	Provokes    []string      `json:"provokes,omitempty"`
}

// MarshalJSON implements json.Marshaler: each dynamic is wrapped in a
// {"type": kind, "params": {...}} envelope.
func (s Scenario) MarshalJSON() ([]byte, error) {
	out := scenarioJSON{Name: s.Name, Description: s.Description, Cell: s.Cell, Provokes: s.Provokes}
	for i, d := range s.Dynamics {
		if d == nil {
			return nil, fmt.Errorf("scenario %q: dynamic %d is nil", s.Name, i)
		}
		params, err := json.Marshal(d)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: dynamic %d (%s): %w", s.Name, i, d.Kind(), err)
		}
		out.Dynamics = append(out.Dynamics, dynEnvelope{Type: d.Kind(), Params: params})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, resolving each dynamic's
// concrete type by its kind tag.
func (s *Scenario) UnmarshalJSON(b []byte) error {
	var in scenarioJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	out := Scenario{Name: in.Name, Description: in.Description, Cell: in.Cell, Provokes: in.Provokes}
	for i, env := range in.Dynamics {
		d := newDynamic(env.Type)
		if d == nil {
			return fmt.Errorf("scenario %q: dynamic %d: unknown type %q (known: %v)",
				in.Name, i, env.Type, DynamicKinds())
		}
		if len(env.Params) > 0 {
			if err := json.Unmarshal(env.Params, d); err != nil {
				return fmt.Errorf("scenario %q: dynamic %d (%s): %w", in.Name, i, env.Type, err)
			}
		}
		out.Dynamics = append(out.Dynamics, d)
	}
	*s = out
	return nil
}

// Parse decodes and validates one scenario from JSON.
func Parse(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}
