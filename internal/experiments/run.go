package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"harl/internal/atomicfile"
)

// experiment is one row of the id table: the id and the run that renders it.
type experiment struct {
	id string
	// alias marks an id whose rows come from the same runs as the entry
	// before it; a whole-suite run skips it.
	alias bool
	run   func(Config, io.Writer)
}

// table is the one list of experiment ids, in the order a whole suite runs
// them. fig5/fig6 and fig8/fig9 share their underlying runs and are emitted
// together by either id.
var table = []experiment{
	{id: "tab1", run: func(_ Config, w io.Writer) { Table1(w) }},
	{id: "fig1a", run: func(c Config, w io.Writer) { GreedyAllocation(c, w) }},
	{id: "fig1b", run: func(c Config, w io.Writer) { UniformImprovement(c, w) }},
	{id: "fig1c", run: func(c Config, w io.Writer) { FixedLengthWaste(c, w) }},
	{id: "fig5", run: func(c Config, w io.Writer) { OperatorGrid(c, w) }},
	{id: "fig6", alias: true, run: func(c Config, w io.Writer) { OperatorGrid(c, w) }},
	{id: "fig7a", run: func(c Config, w io.Writer) { AblationTrajectory(c, w) }},
	{id: "fig7b", run: func(c Config, w io.Writer) { CriticalSteps(c, w) }},
	{id: "fig8", run: func(c Config, w io.Writer) { NetworkGrid(c, w) }},
	{id: "fig9", alias: true, run: func(c Config, w io.Writer) { NetworkGrid(c, w) }},
	{id: "tab4", run: func(c Config, w io.Writer) { Table4(c, w) }},
	{id: "fig10", run: func(c Config, w io.Writer) { AllocationAblation(c, w) }},
	{id: "tab7", run: func(c Config, w io.Writer) { LambdaSensitivity(c, w) }},
	{id: "tab8", run: func(c Config, w io.Writer) { RhoSensitivity(c, w) }},
}

// IDs lists every experiment id Run accepts, aliases included, and the suite:
// the ids a whole-suite run executes, every id but the aliases, so each grid
// runs once.
func IDs() (all, suite []string) {
	for _, e := range table {
		all = append(all, e.id)
		if !e.alias {
			suite = append(suite, e.id)
		}
	}
	return all, suite
}

// Run regenerates one paper table or figure, writing its rows to w, and
// returns the run's summary: the configuration, the measurement accounting
// of this run alone and the rendered rows.
func Run(id string, cfg Config, w io.Writer) (Summary, error) {
	i := slices.IndexFunc(table, func(e experiment) bool { return e.id == id })
	if i < 0 {
		all, _ := IDs()
		return Summary{}, fmt.Errorf("experiments: unknown experiment %q (want %s)", id, strings.Join(all, ", "))
	}
	resetObservations()
	var out bytes.Buffer
	table[i].run(cfg, io.MultiWriter(w, &out))
	measured, toBest := takeObservations()
	return Summary{
		Experiment:         id,
		Seed:               cfg.Seed,
		OperatorBudget:     cfg.OperatorBudget,
		MeasureK:           cfg.MeasureK,
		ConfigsPerCategory: cfg.ConfigsPerCategory,
		Batches:            cfg.Batches,
		NetworkBudgetScale: cfg.NetworkBudgetScale,
		Workers:            cfg.EffectiveWorkers(),
		Measured:           measured,
		TrialsToBest:       toBest,
		Output:             out.String(),
	}, nil
}

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

// WriteFile writes the summary as BENCH_<experiment>.json under dir
// (created if missing) and returns the file path. The write is atomic
// (temp file + rename), so a run killed mid-write never leaves a truncated
// summary behind an intact one.
func (s Summary) WriteFile(dir string) (string, error) {
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
