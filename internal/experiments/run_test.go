package experiments

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", Scaled(), io.Discard); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunTable1(t *testing.T) {
	var sb strings.Builder
	sum, err := Run("tab1", Scaled(), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "harl") {
		t.Fatal("table 1 output missing")
	}
	if sum.Output != sb.String() {
		t.Fatalf("summary output %q, rendered %q", sum.Output, sb.String())
	}
}

func TestRunFig1b(t *testing.T) {
	var sb strings.Builder
	cfg := Scaled()
	cfg.OperatorBudget = 64
	sum, err := Run("fig1b", cfg, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "improvement ratio") {
		t.Fatalf("fig1b output: %q", sb.String())
	}
	if sum.Output != sb.String() {
		t.Fatalf("summary output %q, rendered %q", sum.Output, sb.String())
	}
}

// A run's summary accounts for its own runs only: Run resets the
// accumulator, so tab1 (which tunes nothing) after a tuning experiment
// reports zero. fig1b mutates schedules on the simulator without a tuning
// task, so fig1c (Flextensor runs) is the cheap experiment that measures.
func TestRunResetsObservations(t *testing.T) {
	cfg := Scaled()
	cfg.OperatorBudget = 64
	before, err := Run("fig1c", cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if before.Measured == 0 {
		t.Fatal("fig1c tunes, so its summary must count measured trials")
	}
	sum, err := Run("tab1", cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Measured != 0 || sum.TrialsToBest != 0 {
		t.Fatalf("tab1 after fig1c: measured %d, trials to best %d; want 0, 0", sum.Measured, sum.TrialsToBest)
	}
}

func TestIDsComplete(t *testing.T) {
	ids, suite := IDs()
	if len(ids) != 14 {
		t.Fatalf("experiment ids %d want 14 (every paper table+figure)", len(ids))
	}
	for _, alias := range []string{"fig6", "fig9"} {
		if !slices.Contains(ids, alias) || slices.Contains(suite, alias) {
			t.Fatalf("%s must be an id but not run again by the suite: ids %v, suite %v", alias, ids, suite)
		}
	}
	if len(suite) != 12 {
		t.Fatalf("suite %v, want the 12 non-alias ids", suite)
	}
}

func TestFullPreset(t *testing.T) {
	full := Full()
	if full.OperatorBudget != 1000 || full.NetworkBudgetScale != 1.0 {
		t.Fatalf("full preset broken: %+v", full)
	}
}

func TestSummaryWriteFile(t *testing.T) {
	sum, err := Run("tab1", Scaled(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	path, err := sum.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_tab1.json" {
		t.Fatalf("summary path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got["experiment"] != "tab1" || got["output"] != sum.Output {
		t.Fatalf("summary %v", got)
	}
	if _, ok := got["duration_ms"]; ok {
		t.Fatal("summary carries a timing field; BENCH_*.json is an output pin, not a perf trace")
	}
}
