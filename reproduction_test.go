package jitgc

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"jitgc/internal/telemetry"
)

// TestReproductionSharesCells runs the golden experiments through one
// Reproduction, in presentation order, and requires both that every
// rendering still matches its golden file and that each experiment
// simulates only the closed-loop cells no earlier experiment ran: 81 Run
// cells for the whole evaluation instead of 186 when each experiment
// simulates its own grid.
func TestReproductionSharesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden sweep; skipped in -short")
	}
	if raceEnabled {
		t.Skip("serial sweep; the golden suite already runs every experiment under race")
	}
	newCells := map[string]int{
		"fig2a":               30,
		"table1":              6,
		"fig7a":               18,
		"reliability":         9,
		"ablation-sip":        6,
		"ablation-percentile": 6,
		"ablation-flush":      3,
		"ablation-victim":     3,
	}
	var r Reproduction
	for _, e := range Experiments() {
		if e.ID == "lifetime" || e.ID == "scale" {
			continue
		}
		before := len(r.cells)
		tables, err := r.Run(e, goldenOptions())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got, want := len(r.cells)-before, newCells[e.ID]; got != want {
			t.Errorf("%s simulated %d new cells, want %d", e.ID, got, want)
		}
		path := filepath.Join("testdata", "golden", e.ID+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderExperiment(e, tables); got != string(want) {
			t.Errorf("%s: shared-cell output differs from %s:\n%s", e.ID, path, diffLines(string(want), got))
		}
	}
	if len(r.cells) != 81 {
		t.Errorf("reproduction simulated %d cells, want 81", len(r.cells))
	}
}

// TestReproductionKeepsTracedStreamsWhole runs fig7a and fig7b — which
// render the same 24 cells — through one Reproduction, each with its own
// tracer. The tracer is part of a cell's options, so the second experiment
// must re-simulate its cells rather than reuse the first one's, and each
// event stream must be exactly as long as a standalone run's.
func TestReproductionKeepsTracedStreamsWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig7 grid four times")
	}
	count := func(run func(Experiment, Options) ([]Table, error), e Experiment) int64 {
		sink := telemetry.NewJSONLSink(io.Discard)
		opt := Options{Seed: 1, Ops: 1000, Workers: 2, Tracer: telemetry.New(sink)}
		if _, err := run(e, opt); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return sink.Count()
	}
	standalone := func(e Experiment, opt Options) ([]Table, error) { return e.Run(opt) }
	var r Reproduction
	for _, id := range []string{"fig7a", "fig7b"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		shared := count(r.Run, e)
		if alone := count(standalone, e); shared != alone || shared == 0 {
			t.Errorf("%s: %d events through a shared reproduction, %d standalone", id, shared, alone)
		}
	}
}
