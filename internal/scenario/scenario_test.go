package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/sim"
)

// TestRegistryLookup pins the catalog's order — the order of every
// artifact and benchmark corpus built from Names() — and its lookups.
func TestRegistryLookup(t *testing.T) {
	want := []string{
		"tmobile-tdd", "tmobile-fdd", "amarisoft", "mosolabs",
		"midcall-snr-collapse", "rush-hour-cross-traffic", "flapping-rrc",
		"grant-starvation", "ue-share-squeeze", "harq-storm", "rlc-cascade",
		"jb-freeze-surge", "rtcp-stall", "worst-case-combined",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	// ByName matches case-insensitively, so two names that differ only
	// in case would shadow one another.
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[strings.ToLower(name)] {
			t.Fatalf("scenario %q named twice (case-insensitively)", name)
		}
		seen[strings.ToLower(name)] = true
	}
	// Case-insensitive lookup.
	for _, name := range []string{"amarisoft", "AMARISOFT", " Midcall-SNR-Collapse "} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	// Unknown names report the valid ones.
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
	for _, want := range []string{"midcall-snr-collapse", "worst-case-combined", "tmobile-fdd"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-scenario error %q does not list %q", err, want)
		}
	}
	// A lookup is a copy: changing what one returned leaves the next.
	s, _ := ByName("harq-storm")
	s.Dynamics[0].(*SNRDip).DepthDB = 1
	if again, _ := ByName("harq-storm"); again.Dynamics[0].(*SNRDip).DepthDB != 24 {
		t.Fatal("mutating a looked-up scenario changed the catalog")
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"missing name", Scenario{Cell: "amarisoft"}, "missing name"},
		{"unknown cell", Scenario{Name: "x", Cell: "nokia"}, "unknown cell"},
		{"nil dynamic", Scenario{Name: "x", Cell: "amarisoft", Dynamics: []Dynamic{nil}}, "nil"},
		{"bad dir", Scenario{Name: "x", Cell: "amarisoft",
			Dynamics: []Dynamic{&SNRDip{Dir: "sideways", Start: 0, End: sim.Second, DepthDB: 3}}}, `"ul" or "dl"`},
		{"inverted window", Scenario{Name: "x", Cell: "amarisoft",
			Dynamics: []Dynamic{&SNRDip{Dir: UL, Start: 2 * sim.Second, End: sim.Second, DepthDB: 3}}}, "not after start"},
		{"zero depth", Scenario{Name: "x", Cell: "amarisoft",
			Dynamics: []Dynamic{&SNRDip{Dir: UL, Start: 0, End: sim.Second}}}, "depth_db"},
		{"bad fraction", Scenario{Name: "x", Cell: "amarisoft",
			Dynamics: []Dynamic{&CrossTrafficBurst{Dir: DL, Start: 0, End: sim.Second, Fraction: 1.5}}}, "fraction"},
		{"bad share", Scenario{Name: "x", Cell: "amarisoft",
			Dynamics: []Dynamic{&UEShareDrop{Start: 0, End: sim.Second, Share: 0}}}, "share"},
		{"negative rate", Scenario{Name: "x", Cell: "amarisoft",
			Dynamics: []Dynamic{&RRCFlakyPhase{Start: 0, End: sim.Second, RatePerMinute: -1}}}, "rate_per_minute"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if err == nil {
				t.Fatal("Validate passed")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err, tc.want)
			}
		})
	}
	// Every catalog scenario must validate: no lookup checks it.
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Fatalf("registered scenario %q invalid: %v", s.Name, err)
		}
	}
}

// TestJSONRoundTripStructural pins Marshal→Unmarshal structural
// equality for every registered scenario (trace-level equality is
// pinned by TestScenarioDeterminismAndJSONRoundTrip).
func TestJSONRoundTripStructural(t *testing.T) {
	for _, s := range All() {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		var back Scenario
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v\njson: %s", s.Name, err, b)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: round trip mismatch\n got: %#v\nwant: %#v", s.Name, back, s)
		}
	}
}

func TestParseRejectsUnknownDynamicKind(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name":"x","cell":"amarisoft","dynamics":[{"type":"earthquake"}]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Fatalf("want unknown-type error, got %v", err)
	}
	if !strings.Contains(err.Error(), "snr_dip") {
		t.Fatalf("error should list known kinds, got %v", err)
	}
}

func TestParseValidScenario(t *testing.T) {
	src := `{
		"name": "custom",
		"cell": "mosolabs",
		"dynamics": [
			{"type": "snr_dip", "params": {"dir": "ul", "start_us": 2000000, "end_us": 3000000, "depth_db": 12}},
			{"type": "grant_policy_shift", "params": {"at_us": 1000000, "grants": {"scheduling_delay_us": 30000, "max_grant_bytes": 2000}}}
		]
	}`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dynamics) != 2 {
		t.Fatalf("got %d dynamics", len(s.Dynamics))
	}
	dip, ok := s.Dynamics[0].(*SNRDip)
	if !ok || dip.DepthDB != 12 || dip.Start != 2*sim.Second {
		t.Fatalf("dynamic 0 decoded wrong: %#v", s.Dynamics[0])
	}
	shift, ok := s.Dynamics[1].(*GrantPolicyShift)
	if !ok || shift.Grants.SchedulingDelay != 30*sim.Millisecond || shift.Grants.MaxGrantBytes != 2000 {
		t.Fatalf("dynamic 1 decoded wrong: %#v", s.Dynamics[1])
	}
}

// TestDynamicKindsComplete pins the decodable kinds. DynamicKinds()
// lists every factory's Kind(), so this also holds each factory to a
// distinct tag: a duplicate would decode as whichever factory comes
// first.
func TestDynamicKindsComplete(t *testing.T) {
	kinds := DynamicKinds()
	want := []string{
		"cross_traffic_burst", "cross_traffic_phase", "grant_policy_shift",
		"rrc_flaky_phase", "rrc_release", "snr_dip", "snr_ramp",
		"ue_share_drop", "wired_delay_surge",
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("DynamicKinds() = %v, want %v", kinds, want)
	}
}
