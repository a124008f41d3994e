package experiments

import (
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/scenario"
)

// TestScenariosCatalogShape checks the catalog artifact covers every
// registered scenario.
func TestScenariosCatalogShape(t *testing.T) {
	res, err := runOne("scenarios", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(res.Text, name) {
			t.Fatalf("catalog artifact missing scenario %q:\n%s", name, res.Text)
		}
	}
}

// TestScenariosCatalogWorkerInvariant pins the golden-determinism
// contract across worker counts: the catalog artifact is byte-
// identical however the per-scenario sessions are fanned out.
func TestScenariosCatalogWorkerInvariant(t *testing.T) {
	opts := quickOpts()
	opts.Workers = 1
	seq, err := runOne("scenarios", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par, err := runOne("scenarios", opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Text != par.Text {
		t.Fatalf("catalog artifact differs across Workers settings\nworkers=1:\n%s\nworkers=4:\n%s", seq.Text, par.Text)
	}
}
