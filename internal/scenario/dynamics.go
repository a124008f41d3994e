package scenario

import (
	"fmt"
	"sort"

	"github.com/domino5g/domino/internal/mac"
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rrc"
	"github.com/domino5g/domino/internal/sim"
)

// Direction selects the radio link a dynamic acts on, serialized as
// "ul" or "dl".
type Direction string

// Link directions.
const (
	UL Direction = "ul"
	DL Direction = "dl"
)

func (d Direction) valid() bool { return d == UL || d == DL }

func (d Direction) netem() netem.Direction {
	if d == UL {
		return netem.Uplink
	}
	return netem.Downlink
}

// Target is the set of live simulation handles a Dynamic acts on: the
// event engine plus the session's cell and wired legs. Scenario.Build
// makes one of the rtc.Session it builds; tests may assemble their own.
type Target struct {
	Engine *sim.Engine
	Cell   *ran.Cell
	// ULWired carries local→remote media past the cell; DLWired carries
	// remote→local media (and the local client's inbound RTCP feedback).
	ULWired, DLWired *netem.Path
}

// Dynamic is one timed, per-layer perturbation of a running session.
// Implementations either script deterministic offsets into a layer's
// generator (SNR dips, cross-traffic bursts) or schedule configuration
// mutations as events on the simulation engine (grant-policy shifts,
// flaky-RRC phases) — the knobs that used to be frozen at construction.
type Dynamic interface {
	// Kind is the stable JSON type tag.
	Kind() string
	// Validate checks the dynamic's parameters.
	Validate() error
	// Apply arms the dynamic on the target. It must be called before
	// the simulation starts (engine time zero) and must not consume
	// simulation randomness, so a scenario without dynamics replays
	// byte-identically to its base preset.
	Apply(t *Target)
}

// dynamicKinds makes one zero value of each decodable dynamic type; a
// type's JSON tag is its Kind().
var dynamicKinds = []func() Dynamic{
	func() Dynamic { return &SNRDip{} },
	func() Dynamic { return &SNRRamp{} },
	func() Dynamic { return &CrossTrafficBurst{} },
	func() Dynamic { return &CrossTrafficPhase{} },
	func() Dynamic { return &RRCRelease{} },
	func() Dynamic { return &RRCFlakyPhase{} },
	func() Dynamic { return &GrantPolicyShift{} },
	func() Dynamic { return &UEShareDrop{} },
	func() Dynamic { return &WiredDelaySurge{} },
}

// newDynamic returns a zero dynamic of the given kind, or nil for an
// unknown kind.
func newDynamic(kind string) Dynamic {
	for _, f := range dynamicKinds {
		if d := f(); d.Kind() == kind {
			return d
		}
	}
	return nil
}

// DynamicKinds returns the decodable dynamic type tags, sorted.
func DynamicKinds() []string {
	out := make([]string, len(dynamicKinds))
	for i, f := range dynamicKinds {
		out[i] = f().Kind()
	}
	sort.Strings(out)
	return out
}

// windowErr validates a [start, end) interval.
func windowErr(kind string, start, end sim.Time) error {
	if start < 0 {
		return fmt.Errorf("scenario: %s: negative start %v", kind, start)
	}
	if end <= start {
		return fmt.Errorf("scenario: %s: end %v not after start %v", kind, end, start)
	}
	return nil
}

// dirErr validates a direction value; field names the JSON key so the
// error points at the right place in a scenario file.
func dirErr(kind, field string, d Direction) error {
	if !d.valid() {
		return fmt.Errorf(`scenario: %s: %s must be "ul" or "dl", got %q`, kind, field, d)
	}
	return nil
}

// SNRDip subtracts DepthDB from the channel SNR during [Start, End) —
// a transient deep fade (mobility, blocking) that clears on its own.
type SNRDip struct {
	Dir     Direction `json:"dir"`
	Start   sim.Time  `json:"start_us"`
	End     sim.Time  `json:"end_us"`
	DepthDB float64   `json:"depth_db"`
}

// Kind implements Dynamic.
func (d *SNRDip) Kind() string { return "snr_dip" }

// Validate implements Dynamic.
func (d *SNRDip) Validate() error {
	if err := dirErr(d.Kind(), "dir", d.Dir); err != nil {
		return err
	}
	if d.DepthDB <= 0 {
		return fmt.Errorf("scenario: snr_dip: depth_db must be positive, got %v", d.DepthDB)
	}
	return windowErr(d.Kind(), d.Start, d.End)
}

// Apply implements Dynamic.
func (d *SNRDip) Apply(t *Target) {
	t.Cell.Channel(d.Dir.netem()).ScriptDip(d.Start, d.End, d.DepthDB)
}

// SNRRamp shifts the channel SNR by DeltaDB, interpolated linearly
// over [Start, End) and held afterwards — a lasting mean change such
// as a mid-call channel collapse (negative delta) or recovery
// (positive delta).
type SNRRamp struct {
	Dir     Direction `json:"dir"`
	Start   sim.Time  `json:"start_us"`
	End     sim.Time  `json:"end_us"`
	DeltaDB float64   `json:"delta_db"`
}

// Kind implements Dynamic.
func (d *SNRRamp) Kind() string { return "snr_ramp" }

// Validate implements Dynamic.
func (d *SNRRamp) Validate() error {
	if err := dirErr(d.Kind(), "dir", d.Dir); err != nil {
		return err
	}
	if d.DeltaDB == 0 {
		return fmt.Errorf("scenario: snr_ramp: delta_db must be nonzero")
	}
	if d.Start < 0 {
		return fmt.Errorf("scenario: snr_ramp: negative start %v", d.Start)
	}
	if d.End < d.Start {
		return fmt.Errorf("scenario: snr_ramp: end %v before start %v", d.End, d.Start)
	}
	return nil
}

// Apply implements Dynamic.
func (d *SNRRamp) Apply(t *Target) {
	t.Cell.Channel(d.Dir.netem()).ScriptRamp(d.Start, d.End, d.DeltaDB)
}

// CrossTrafficBurst adds a deterministic background load of Fraction
// of the carrier during [Start, End) — one heavy neighbor transfer.
type CrossTrafficBurst struct {
	Dir      Direction `json:"dir"`
	Start    sim.Time  `json:"start_us"`
	End      sim.Time  `json:"end_us"`
	Fraction float64   `json:"fraction"`
}

// Kind implements Dynamic.
func (d *CrossTrafficBurst) Kind() string { return "cross_traffic_burst" }

// Validate implements Dynamic.
func (d *CrossTrafficBurst) Validate() error {
	if err := dirErr(d.Kind(), "dir", d.Dir); err != nil {
		return err
	}
	if d.Fraction <= 0 || d.Fraction > 1 {
		return fmt.Errorf("scenario: cross_traffic_burst: fraction %v out of (0,1]", d.Fraction)
	}
	return windowErr(d.Kind(), d.Start, d.End)
}

// Apply implements Dynamic.
func (d *CrossTrafficBurst) Apply(t *Target) {
	t.Cell.Cross(d.Dir.netem()).ScriptBurst(d.Start, d.End, d.Fraction)
}

// CrossTrafficPhase swaps the stochastic cross-traffic profile at At —
// a load-regime change such as a quiet cell entering rush hour.
type CrossTrafficPhase struct {
	Dir    Direction              `json:"dir"`
	At     sim.Time               `json:"at_us"`
	Config mac.CrossTrafficConfig `json:"config"`
}

// Kind implements Dynamic.
func (d *CrossTrafficPhase) Kind() string { return "cross_traffic_phase" }

// Validate implements Dynamic.
func (d *CrossTrafficPhase) Validate() error {
	if err := dirErr(d.Kind(), "dir", d.Dir); err != nil {
		return err
	}
	if d.At < 0 {
		return fmt.Errorf("scenario: cross_traffic_phase: negative at %v", d.At)
	}
	if d.Config.BaselineFraction < 0 || d.Config.BaselineFraction > 1 ||
		d.Config.BurstPRBFraction < 0 || d.Config.BurstPRBFraction > 1 {
		return fmt.Errorf("scenario: cross_traffic_phase: fractions out of [0,1]")
	}
	return nil
}

// Apply implements Dynamic.
func (d *CrossTrafficPhase) Apply(t *Target) {
	cross := t.Cell.Cross(d.Dir.netem())
	cfg := d.Config
	t.Engine.Schedule(d.At, func() { cross.SetConfig(cfg) })
}

// RRCRelease forces one spurious RRC release at At (the Fig. 19
// deterministic outage).
type RRCRelease struct {
	At sim.Time `json:"at_us"`
}

// Kind implements Dynamic.
func (d *RRCRelease) Kind() string { return "rrc_release" }

// Validate implements Dynamic.
func (d *RRCRelease) Validate() error {
	if d.At < 0 {
		return fmt.Errorf("scenario: rrc_release: negative at %v", d.At)
	}
	return nil
}

// Apply implements Dynamic.
func (d *RRCRelease) Apply(t *Target) { t.Cell.RRC().ScriptRelease(d.At) }

// RRCFlakyPhase makes the RRC machine spuriously release at
// RatePerMinute during [Start, End), restoring the previous behaviour
// afterwards — a bounded flapping phase instead of a whole-call rate.
type RRCFlakyPhase struct {
	Start         sim.Time `json:"start_us"`
	End           sim.Time `json:"end_us"`
	RatePerMinute float64  `json:"rate_per_minute"`
	Outage        sim.Time `json:"outage_us"`
}

// Kind implements Dynamic.
func (d *RRCFlakyPhase) Kind() string { return "rrc_flaky_phase" }

// Validate implements Dynamic.
func (d *RRCFlakyPhase) Validate() error {
	if d.RatePerMinute <= 0 {
		return fmt.Errorf("scenario: rrc_flaky_phase: rate_per_minute must be positive, got %v", d.RatePerMinute)
	}
	if d.Outage < 0 {
		return fmt.Errorf("scenario: rrc_flaky_phase: negative outage %v", d.Outage)
	}
	return windowErr(d.Kind(), d.Start, d.End)
}

// Apply implements Dynamic.
func (d *RRCFlakyPhase) Apply(t *Target) {
	m := t.Cell.RRC()
	outage := d.Outage
	if outage == 0 {
		outage = 300 * sim.Millisecond
	}
	var prev rrc.Config
	t.Engine.Schedule(d.Start, func() {
		prev = m.Config()
		m.SetConfig(rrc.Config{ReleaseRate: d.RatePerMinute, OutageDuration: outage})
	})
	t.Engine.Schedule(d.End, func() { m.SetConfig(prev) })
}

// GrantPolicyShift replaces the uplink grant policy at At — a
// scheduler reconfiguration such as grant starvation (long scheduling
// delay, small grant caps) or the reverse.
type GrantPolicyShift struct {
	At     sim.Time        `json:"at_us"`
	Grants mac.GrantConfig `json:"grants"`
}

// Kind implements Dynamic.
func (d *GrantPolicyShift) Kind() string { return "grant_policy_shift" }

// Validate implements Dynamic.
func (d *GrantPolicyShift) Validate() error {
	if d.At < 0 {
		return fmt.Errorf("scenario: grant_policy_shift: negative at %v", d.At)
	}
	if d.Grants.SchedulingDelay < 0 || d.Grants.BSRPeriod < 0 {
		return fmt.Errorf("scenario: grant_policy_shift: negative delay in grant config")
	}
	return nil
}

// Apply implements Dynamic.
func (d *GrantPolicyShift) Apply(t *Target) {
	sched := t.Cell.ULSched()
	cfg := d.Grants
	t.Engine.Schedule(d.At, func() { sched.SetConfig(cfg) })
}

// UEShareDrop caps the experiment UE's PRB share at Share during
// [Start, End), restoring the previous cap afterwards — a fairness
// squeeze, e.g. the cell admitting a higher-priority slice.
type UEShareDrop struct {
	Start sim.Time `json:"start_us"`
	End   sim.Time `json:"end_us"`
	Share float64  `json:"share"`
}

// Kind implements Dynamic.
func (d *UEShareDrop) Kind() string { return "ue_share_drop" }

// Validate implements Dynamic.
func (d *UEShareDrop) Validate() error {
	if d.Share <= 0 || d.Share > 1 {
		return fmt.Errorf("scenario: ue_share_drop: share %v out of (0,1]", d.Share)
	}
	return windowErr(d.Kind(), d.Start, d.End)
}

// Apply implements Dynamic.
func (d *UEShareDrop) Apply(t *Target) {
	cell := t.Cell
	var prev float64
	t.Engine.Schedule(d.Start, func() {
		prev = cell.Config().MaxUEShare
		cell.SetMaxUEShare(d.Share)
	})
	t.Engine.Schedule(d.End, func() { cell.SetMaxUEShare(prev) })
}

// WiredDelaySurge adds Extra one-way delay on one wired leg during
// [Start, End). With RTCPOnly only feedback packets are delayed — the
// Fig. 22 reverse-path stall; otherwise all packets on the leg are —
// the Fig. 20 jitter-buffer drain.
type WiredDelaySurge struct {
	Leg      Direction `json:"leg"`
	Start    sim.Time  `json:"start_us"`
	End      sim.Time  `json:"end_us"`
	Extra    sim.Time  `json:"extra_us"`
	RTCPOnly bool      `json:"rtcp_only,omitempty"`
}

// Kind implements Dynamic.
func (d *WiredDelaySurge) Kind() string { return "wired_delay_surge" }

// Validate implements Dynamic.
func (d *WiredDelaySurge) Validate() error {
	if err := dirErr(d.Kind(), "leg", d.Leg); err != nil {
		return err
	}
	if d.Extra <= 0 {
		return fmt.Errorf("scenario: wired_delay_surge: extra_us must be positive, got %v", d.Extra)
	}
	return windowErr(d.Kind(), d.Start, d.End)
}

// Apply implements Dynamic.
func (d *WiredDelaySurge) Apply(t *Target) {
	path := t.ULWired
	if d.Leg == DL {
		path = t.DLWired
	}
	if d.RTCPOnly {
		path.ScriptExtraDelayKind(netem.KindRTCP, d.Start, d.End, d.Extra)
		return
	}
	path.ScriptExtraDelay(d.Start, d.End, d.Extra)
}
