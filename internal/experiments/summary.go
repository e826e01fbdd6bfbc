package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"harl/internal/atomicfile"
)

// Summary is the machine-readable output of one experiment run, written as
// BENCH_<experiment>.json (CI uploads these files as workflow artifacts). It
// carries no timing: every field is seed-deterministic, so a committed
// summary is an output pin; timings live in the benchmark/ ledger.
type Summary struct {
	Experiment string `json:"experiment"`
	// Config echoes the resolved experiment configuration so a summary is
	// comparable only against runs of the same budget.
	Seed               uint64  `json:"seed"`
	OperatorBudget     int     `json:"operator_budget"`
	MeasureK           int     `json:"measure_k"`
	ConfigsPerCategory int     `json:"configs_per_category"`
	Batches            []int   `json:"batches"`
	NetworkBudgetScale float64 `json:"network_budget_scale"`
	Workers            int     `json:"workers"`
	// Measured is the trial count of every tuning run the experiment
	// performed, and TrialsToBest the mean trial at which runs locked in
	// their final best. Experiments that tune nothing (tab1) report zeros.
	Measured     int `json:"measured"`
	TrialsToBest int `json:"trials_to_best"`
	// Output is the experiment's rendered table/figure text — the same rows
	// a human sees, kept verbatim so summaries are diffable run to run.
	Output string `json:"output"`
}

// NewSummary builds the summary of one finished experiment, taking the
// measurement accounting the run accumulated since ResetObservations.
func NewSummary(id string, cfg Config, output string) Summary {
	obs := TakeObservations()
	return Summary{
		Experiment:         id,
		Seed:               cfg.Seed,
		OperatorBudget:     cfg.OperatorBudget,
		MeasureK:           cfg.MeasureK,
		ConfigsPerCategory: cfg.ConfigsPerCategory,
		Batches:            cfg.Batches,
		NetworkBudgetScale: cfg.NetworkBudgetScale,
		Workers:            cfg.EffectiveWorkers(),
		Measured:           obs.Measured,
		TrialsToBest:       obs.TrialsToBest,
		Output:             output,
	}
}

// WriteFile writes the summary as BENCH_<experiment>.json under dir
// (created if missing) and returns the file path. The write is atomic
// (temp file + rename), so a run killed mid-write never leaves a truncated
// summary behind an intact one.
func (s Summary) WriteFile(dir string) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("experiments: summary dir: %w", err)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", fmt.Errorf("experiments: marshal summary: %w", err)
	}
	path := filepath.Join(dir, "BENCH_"+s.Experiment+".json")
	if err := atomicfile.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("experiments: write summary: %w", err)
	}
	return path, nil
}
