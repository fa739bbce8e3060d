package harness

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOptions keeps test runtime low on small machines; Scale below the
// floor still produces statistically meaningful minimum sizes.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Out: buf, Scale: 0.01, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	// Every experiment promised by DESIGN.md's index must be registered.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig4", "fig4-150", "fig4-250", "fig-mm2", "fig-bwa",
		"fig5", "fig5-he100", "fig5-le150", "fig5-he150", "fig5-le250", "fig5-he250",
		"fig6", "fig6-150", "fig6-250", "fig7", "fig8", "figs12",
		"tables24", "tables25", "tables26", "occupancy", "ablation", "fig2",
		"pipeline", "streamingest", "multicontig", "genomescale",
		"chaos",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, DESIGN.md indexes %d", len(ids), len(want))
	}
	for _, e := range All() {
		if e.PaperRef == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var buf bytes.Buffer
	if err := Run("nope", Options{Out: &buf}); err == nil {
		t.Fatal("Run of unknown experiment accepted")
	}
}

func TestThresholdGrids(t *testing.T) {
	if got := thresholdsFor(100); len(got) != 11 || got[10] != 10 {
		t.Fatalf("100bp grid: %v", got)
	}
	if got := thresholdsFor(150); got[len(got)-1] != 15 {
		t.Fatalf("150bp grid: %v", got)
	}
	if got := thresholdsFor(250); got[len(got)-1] != 25 {
		t.Fatalf("250bp grid: %v", got)
	}
	if got := thresholdsFor(80); got[len(got)-1] != 8 {
		t.Fatalf("default grid: %v", got)
	}
}

func TestAccuracyExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig4", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"False accepts", "paper FA rate", "zero false rejects"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestComparisonExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig5", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GKGPU", "SnkSnake", "paper GKGPU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 output missing %q", want)
		}
	}
}

func TestPipelineExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("pipeline", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"speedup", "one-shot", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pipeline output missing %q:\n%s", want, out)
		}
	}
}

func TestChaosExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("chaos", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fault rate", "redispatches", "bit-identical", "drained its producer", "taxonomy error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out)
		}
	}
}

func TestStreamIngestExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("streamingest", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"materialized", "channel-fed", "byte-identical", "peak heap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("streamingest output missing %q:\n%s", want, out)
		}
	}
}

func TestThroughputExperimentsRun(t *testing.T) {
	for _, id := range []string{"table2", "fig6", "fig7", "fig8", "figs12"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestWholeGenomeExperimentsRun(t *testing.T) {
	for _, id := range []string{"table3", "table4", "table5"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "paper") {
			t.Fatalf("%s output missing paper reference", id)
		}
	}
}

func TestMultiContigExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("multicontig", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chr1", "chr2", "chr3", "junction-straddling reads mapped: 0/"} {
		if !strings.Contains(out, want) {
			t.Fatalf("multicontig output missing %q:\n%s", want, out)
		}
	}
}

func TestPowerAndOccupancyRun(t *testing.T) {
	for _, id := range []string{"table6", "occupancy"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestSimSetExperimentsRun(t *testing.T) {
	for _, id := range []string{"tables25", "tables26"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "Rejected") {
			t.Fatalf("%s output missing reduction column", id)
		}
	}
}

func TestFig2AndAblationRun(t *testing.T) {
	for _, id := range []string{"fig2", "ablation"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	var buf bytes.Buffer
	if err := Run("fig2", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Hamming", "AND", "GateKeeper-FPGA", "GateKeeper-GPU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 output missing %q", want)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}
	o.applyDefaults()
	if got := o.scaled(1000); got != 500 {
		t.Fatalf("scaled(1000) at 0.5 = %d", got)
	}
	o = Options{Scale: 0.0001}
	o.applyDefaults()
	if got := o.scaled(1000); got != 50 {
		t.Fatalf("floor not applied: %d", got)
	}
	var defaulted Options
	defaulted.applyDefaults()
	if defaulted.Scale != 1.0 || defaulted.Seed == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestGenomeScaleExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("genomescale", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BELOW the 2^31", "step=1", "step=16", "serialize:", "load:", "identical to in-memory: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("genomescale output missing %q:\n%s", want, out)
		}
	}
}
