package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/domino5g/domino/internal/sim"
)

// quickOpts keeps experiment tests fast: short calls, one session.
func quickOpts() Options {
	return Options{Duration: 20 * sim.Second, Seed: 11, Sessions: 1}
}

// runOne regenerates one artifact.
func runOne(id string, o Options) (Result, error) {
	out, err := RunParallel([]string{id}, o)
	if err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// TestRegistryComplete pins the catalog's order: cmd/experiments lists
// and prints the artifacts in it, so a reorder changes its stdout.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig12", "fig13", "fig14", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22",
		"fig10", "table2", "table4", "fig11", "headline",
		"fig8", "table3",
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"scenarios",
	}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := runOne("fig99", quickOpts()); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestFig2ShapeCellularDominatesWired(t *testing.T) {
	res, err := runOne("fig2", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "cellular UL") || !strings.Contains(res.Text, "wired UL") {
		t.Fatalf("missing series:\n%s", res.Text)
	}
}

func TestFig5OrderingInOutput(t *testing.T) {
	res, err := runOne("fig5", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wired", "wifi", "cellular"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("missing access type %q:\n%s", want, res.Text)
		}
	}
}

func TestFig11GeneratesCode(t *testing.T) {
	res, err := runOne("fig11", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "func BackwardTrace") {
		t.Fatalf("no generated detector:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "dl_rlc_retx") {
		t.Fatal("generated code missing the Fig. 11 chain")
	}
}

// The heavier end-to-end runners are exercised once each with short
// durations; shape assertions live with the runner outputs.
func TestCaseStudyRunnersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("case studies are slow")
	}
	for _, id := range []string{"fig12", "fig16", "fig20", "fig22"} {
		res, err := runOne(id, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Text) == 0 || res.Title == "" || res.PaperRef == "" {
			t.Fatalf("%s: incomplete result", id)
		}
	}
}

func TestTable1RatesPlausible(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := runOne("table1", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// All four cells and the Zoom row appear.
	for _, want := range []string{"T-Mobile", "Amarisoft", "Mosolabs", "Zoom"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("missing row %q:\n%s", want, res.Text)
		}
	}
}
