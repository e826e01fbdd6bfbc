// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index is the README section "Regenerating
// the paper's tables and figures"). Each experiment is a function that runs
// the required tuning jobs at a configurable budget, returns typed result
// rows, and renders the same rows the paper reports to an io.Writer. Run
// dispatches an experiment id to its function and returns the run's Summary;
// the harl-bench command drives the package through Run, and the root
// package's benchmarks (bench_test.go) call the functions directly.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"

	"harl/internal/core"
	"harl/internal/hardware"
	"harl/internal/search"
	"harl/internal/stats"
	"harl/internal/texpr"
	"harl/internal/workload"
)

// Config scales the experiment grid. The paper's budgets (1000 operator
// trials; 12k/22k/16k network trials) are Full(); Scaled() shrinks them so
// the whole suite runs in minutes on a laptop while preserving the
// comparisons' shape.
type Config struct {
	Seed uint64
	// OperatorBudget is the measurement-trial budget per operator.
	OperatorBudget int
	// MeasureK is the number of measured candidates per round for every
	// engine (the paper's "same number of measurement candidates in each
	// round" fairness setup).
	MeasureK int
	// ConfigsPerCategory selects how many of the four Table-6 shapes per
	// operator category to run (1..4).
	ConfigsPerCategory int
	// Batches lists the batch sizes of the operator/network grids.
	Batches []int
	// NetworkBudgetScale multiplies the paper's per-network trial budgets.
	NetworkBudgetScale float64
	// NetworkPlatforms lists platform names for the network grid.
	NetworkPlatforms []string
	// Workers sizes the worker pool used by every tuning job (0 or 1 runs
	// single-threaded, < 0 selects runtime.NumCPU()). Experiment outputs
	// are byte-identical for every worker count — the pool only fans out
	// order-independent work (trial evaluation, cost-model queries) — so
	// raising it is purely a wall-clock optimization.
	Workers int
}

// EffectiveWorkers resolves the configured pool width to the worker count
// the tuning jobs actually run with: 0 means single-threaded and < 0 selects
// runtime.NumCPU(). Summaries record this resolved value, not the raw flag
// default, so a BENCH trace says how wide the run really was.
func (c Config) EffectiveWorkers() int {
	if c.Workers == 0 {
		return 1
	}
	if c.Workers < 0 {
		return runtime.NumCPU()
	}
	return c.Workers
}

// Scaled returns the default reduced-budget configuration used by the bench
// harness and tests.
func Scaled() Config {
	return Config{
		Seed:               7,
		OperatorBudget:     600,
		MeasureK:           16,
		ConfigsPerCategory: 1,
		Batches:            []int{1, 16},
		NetworkBudgetScale: 0.025,
		NetworkPlatforms:   []string{"cpu", "gpu"},
	}
}

// Full returns the paper-scale configuration (hours of runtime).
func Full() Config {
	return Config{
		Seed:               1,
		OperatorBudget:     1000,
		MeasureK:           16,
		ConfigsPerCategory: 4,
		Batches:            []int{1, 16},
		NetworkBudgetScale: 1.0,
		NetworkPlatforms:   []string{"cpu", "gpu"},
	}
}

// ---------------------------------------------------------------------------
// Operator-pair runner shared by Fig. 5 / Fig. 6 / Fig. 7 / Tables 7-8.
// ---------------------------------------------------------------------------

// PairResult compares Ansor and HARL on one operator configuration.
type PairResult struct {
	Name       string
	AnsorExec  float64 // noise-free exec time of Ansor's final program
	HARLExec   float64
	AnsorGF    float64
	HARLGF     float64
	AnsorTime  float64 // search seconds until Ansor found its final program
	HARLTime   float64 // search seconds until HARL matched Ansor's final program
	HARLFaster float64 // AnsorTime / HARLTime
	Reached    bool    // whether HARL matched Ansor's final program at all
}

// RunPair tunes one subgraph with Ansor and HARL under identical budgets and
// computes the paper's two metrics (Section 6.2): Performance (inverse
// execution time of the final program) and Search time (time to reach a
// program no worse than the baseline's final output).
func RunPair(sg *texpr.Subgraph, plat *hardware.Platform, budget, measureK int, seed uint64, workers int) PairResult {
	// Fresh subgraph instances per engine would share state anyway; tasks are
	// engine-private so a single instance is safe.
	ansor := tuneOperator(sg, plat, "ansor", budget, measureK, seed, workers)
	harl := tuneOperator(sg, plat, "harl", budget, measureK, seed+1, workers)

	res := PairResult{
		Name:      sg.Name,
		AnsorExec: bestExec(ansor),
		HARLExec:  bestExec(harl),
		AnsorGF:   bestGFLOPS(ansor),
		HARLGF:    bestGFLOPS(harl),
	}
	// Ansor's search time: when it found its own final program.
	res.AnsorTime, _ = timeToReach(ansor, ansor.BestExec)
	// HARL's search time: when it matched Ansor's final program quality
	// (measured best-log versus Ansor's noisy best, per the paper metric).
	res.HARLTime, res.Reached = timeToReach(harl, ansor.BestExec)
	if res.HARLTime > 0 {
		res.HARLFaster = res.AnsorTime / res.HARLTime
	}
	return res
}

// tuneOperator runs a scheduler preset on one subgraph — the one-task case of
// the tuner runNetwork drives — and returns the tuned task, observed.
func tuneOperator(sg *texpr.Subgraph, plat *hardware.Platform, schedName string, budget, measureK int, seed uint64, workers int) *search.Task {
	tn, err := core.NewOperatorTuner(sg, plat, schedName, measureK, seed, workers)
	if err != nil {
		panic(err)
	}
	return runOperator(tn, budget)
}

func runOperator(tn *core.ParallelNetworkTuner, budget int) *search.Task {
	tn.RunCtx(context.Background(), budget)
	t := tn.MT.Tasks[0]
	observeTask(t)
	return t
}

// bestExec is the noise-free simulator time of the task's best schedule, and
// bestGFLOPS the corresponding throughput.
func bestExec(t *search.Task) float64 { return t.Meas.Sim.Exec(t.Best) }

func bestGFLOPS(t *search.Task) float64 { return t.Graph.FLOPs() / bestExec(t) / 1e9 }

func timeToReach(t *search.Task, target float64) (float64, bool) {
	for i, e := range t.BestLog {
		if e <= target {
			return t.TrialCost[i], true
		}
	}
	if n := len(t.TrialCost); n > 0 {
		return t.TrialCost[n-1], false
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Figure 5 & 6: operator performance and search time.
// ---------------------------------------------------------------------------

// OperatorRow is one bar group of Figures 5 and 6: a category × batch cell
// with normalized performance and normalized search time for both systems.
type OperatorRow struct {
	Category string
	Batch    int
	// Normalized performance (max of the two = 1), Figure 5.
	AnsorPerf, HARLPerf float64
	// Normalized search time (max of the two = 1), Figure 6.
	AnsorTime, HARLTime float64
	// Raw means across the category's configurations.
	AnsorGF, HARLGF float64
	Speedup         float64 // HARL perf / Ansor perf
	TimeRatio       float64 // HARL search time / Ansor search time
}

// OperatorGrid runs the Fig. 5/6 grid on the CPU platform and returns one row
// per (category, batch).
func OperatorGrid(cfg Config, w io.Writer) []OperatorRow {
	plat := hardware.CPUXeon6226R()
	var rows []OperatorRow
	for _, batch := range cfg.Batches {
		for _, cat := range workload.OperatorCategories() {
			suite := workload.SuiteFor(cat, batch)
			if len(suite) > cfg.ConfigsPerCategory {
				suite = suite[:cfg.ConfigsPerCategory]
			}
			var aPerf, hPerf, aTime, hTime, aGF, hGF []float64
			for i, sg := range suite {
				pr := RunPair(sg, plat, cfg.OperatorBudget, cfg.MeasureK, cfg.Seed+uint64(i)*97+uint64(batch), cfg.EffectiveWorkers())
				aPerf = append(aPerf, 1/pr.AnsorExec)
				hPerf = append(hPerf, 1/pr.HARLExec)
				aTime = append(aTime, pr.AnsorTime)
				hTime = append(hTime, pr.HARLTime)
				aGF = append(aGF, pr.AnsorGF)
				hGF = append(hGF, pr.HARLGF)
			}
			row := OperatorRow{Category: cat, Batch: batch,
				AnsorGF: stats.Summarize(aGF).Mean, HARLGF: stats.Summarize(hGF).Mean}
			ap, hp := stats.Summarize(aPerf).Mean, stats.Summarize(hPerf).Mean
			maxPerf := math.Max(ap, hp)
			row.AnsorPerf, row.HARLPerf = ap/maxPerf, hp/maxPerf
			at, ht := stats.Summarize(aTime).Mean, stats.Summarize(hTime).Mean
			maxTime := math.Max(at, ht)
			if maxTime > 0 {
				row.AnsorTime, row.HARLTime = at/maxTime, ht/maxTime
			}
			row.Speedup = hp / ap
			if at > 0 {
				row.TimeRatio = ht / at
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-7s batch=%-3d perf: ansor=%.3f harl=%.3f (harl/ansor=%.2fx, %4.0f vs %4.0f gflops) | search time: ansor=%.3f harl=%.3f (ratio %.2f)\n",
				cat, batch, row.AnsorPerf, row.HARLPerf, row.Speedup, row.AnsorGF, row.HARLGF, row.AnsorTime, row.HARLTime, row.TimeRatio)
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 7(a): ablation trajectory on GEMM-L.
// ---------------------------------------------------------------------------

// TrajectoryResult holds best-so-far performance curves for the three systems
// of the ablation (normalized so the best final performance = 1).
type TrajectoryResult struct {
	Trials  []int
	Ansor   []float64
	HierRL  []float64
	HARL    []float64
	FinalGF map[string]float64
}

// AblationTrajectory reproduces Fig. 7(a): Ansor vs Hierarchical-RL (fixed
// length) vs HARL (adaptive stopping) on the 1024³ GEMM.
func AblationTrajectory(cfg Config, w io.Writer) TrajectoryResult {
	sg := workload.GEMM("GEMM-L-1024", 1, 1024, 1024, 1024)
	plat := hardware.CPUXeon6226R()
	budget := cfg.OperatorBudget

	curves := map[string][]float64{}
	finals := map[string]float64{}
	for _, name := range []string{"ansor", "hierarchical-rl", "harl"} {
		task := tuneOperator(sg, plat, name, budget, cfg.MeasureK, cfg.Seed, cfg.EffectiveWorkers())
		curves[name] = task.BestLog
		finals[name] = bestGFLOPS(task)
	}
	// Normalize performance (1/exec) by the best final across systems.
	bestPerf := 0.0
	for _, c := range curves {
		if p := 1 / c[len(c)-1]; p > bestPerf {
			bestPerf = p
		}
	}
	points := 20
	tr := TrajectoryResult{FinalGF: finals}
	for i := 1; i <= points; i++ {
		idx := budget*i/points - 1
		tr.Trials = append(tr.Trials, idx+1)
		tr.Ansor = append(tr.Ansor, sampleCurve(curves["ansor"], idx, bestPerf))
		tr.HierRL = append(tr.HierRL, sampleCurve(curves["hierarchical-rl"], idx, bestPerf))
		tr.HARL = append(tr.HARL, sampleCurve(curves["harl"], idx, bestPerf))
	}
	fmt.Fprintf(w, "trials   ansor  hier-rl  harl   (normalized performance)\n")
	for i, n := range tr.Trials {
		fmt.Fprintf(w, "%6d   %.3f  %.3f    %.3f\n", n, tr.Ansor[i], tr.HierRL[i], tr.HARL[i])
	}
	fmt.Fprintf(w, "final gflops: ansor=%.0f hier-rl=%.0f harl=%.0f\n",
		finals["ansor"], finals["hierarchical-rl"], finals["harl"])
	return tr
}

func sampleCurve(log []float64, idx int, norm float64) float64 {
	if len(log) == 0 {
		return 0
	}
	if idx >= len(log) {
		idx = len(log) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return (1 / log[idx]) / norm
}

// ---------------------------------------------------------------------------
// Figure 7(b): critical-step histograms, fixed vs adaptive.
// ---------------------------------------------------------------------------

// CriticalStepsResult holds the relative critical-step position histograms
// (10 bins over [0,1]) of the fixed-length and adaptive-stopping searches.
type CriticalStepsResult struct {
	FixedBins    []int
	AdaptiveBins []int
	// FixedLastDecile and AdaptiveLastDecile are the fractions of tracks
	// whose best schedule appeared in the last 10% of their path — the
	// paper's "less than 10% wasted steps" statistic.
	FixedLastDecile    float64
	AdaptiveLastDecile float64
}

// CriticalSteps reproduces Fig. 7(b) on the 1024³ GEMM.
func CriticalSteps(cfg Config, w io.Writer) CriticalStepsResult {
	sg := workload.GEMM("GEMM-L-1024", 1, 1024, 1024, 1024)
	plat := hardware.CPUXeon6226R()
	fixed := tuneOperator(sg, plat, "hierarchical-rl", cfg.OperatorBudget, cfg.MeasureK, cfg.Seed, cfg.EffectiveWorkers())
	adaptive := tuneOperator(sg, plat, "harl", cfg.OperatorBudget, cfg.MeasureK, cfg.Seed, cfg.EffectiveWorkers())

	res := CriticalStepsResult{
		FixedBins:    positionBins(fixed.TrackPositions),
		AdaptiveBins: positionBins(adaptive.TrackPositions),
	}
	res.FixedLastDecile = lastDecile(fixed.TrackPositions)
	res.AdaptiveLastDecile = lastDecile(adaptive.TrackPositions)
	fmt.Fprintf(w, "position   fixed  adaptive  (critical-step histograms)\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(w, "%3d%%-%3d%%  %5d  %5d\n", i*10, (i+1)*10, res.FixedBins[i], res.AdaptiveBins[i])
	}
	fmt.Fprintf(w, "critical step in last 10%% of path: fixed=%.1f%% adaptive=%.1f%%\n",
		res.FixedLastDecile*100, res.AdaptiveLastDecile*100)
	return res
}

func positionBins(pos []float64) []int {
	bins := make([]int, 10)
	for _, p := range pos {
		i := int(p * 10)
		if i > 9 {
			i = 9
		}
		if i < 0 {
			i = 0
		}
		bins[i]++
	}
	return bins
}

func lastDecile(pos []float64) float64 {
	if len(pos) == 0 {
		return 0
	}
	n := 0
	for _, p := range pos {
		if p >= 0.9 {
			n++
		}
	}
	return float64(n) / float64(len(pos))
}

// ---------------------------------------------------------------------------
// Tables 7 & 8: adaptive-stopping sensitivity.
// ---------------------------------------------------------------------------

// SensitivityRow is one row of Table 7 (λ sweep) or Table 8 (ρ sweep).
type SensitivityRow struct {
	Value       float64
	Perf        float64 // normalized performance (best = 1)
	TimePerIter float64 // normalized search time per round (max = 1)
	RawGF       float64
	RawTimeIter float64
}

// LambdaSensitivity reproduces Table 7: the adaptive-stopping window size λ
// swept over {10, 20, 40, 80} on the 1024³ GEMM.
func LambdaSensitivity(cfg Config, w io.Writer) []SensitivityRow {
	return sensitivity(cfg, w, "lambda", []float64{10, 20, 40, 80})
}

// RhoSensitivity reproduces Table 8: the elimination ratio ρ swept over
// {0.75, 0.5, 0.25}.
func RhoSensitivity(cfg Config, w io.Writer) []SensitivityRow {
	return sensitivity(cfg, w, "rho", []float64{0.75, 0.5, 0.25})
}

func sensitivity(cfg Config, w io.Writer, param string, values []float64) []SensitivityRow {
	sg := workload.GEMM("GEMM-L-1024", 1, 1024, 1024, 1024)
	plat := hardware.CPUXeon6226R()
	rows := make([]SensitivityRow, 0, len(values))
	for _, v := range values {
		hcfg := search.DefaultHARLConfig()
		switch param {
		case "lambda":
			hcfg.Lambda = int(v)
		case "rho":
			hcfg.Rho = v
		}
		mk := func() search.Engine { return search.NewHARL(hcfg) }
		task := runOperator(core.NewTuner([]*texpr.Subgraph{sg}, plat, "harl", mk, core.PolicySWUCB, cfg.MeasureK, cfg.Seed, cfg.EffectiveWorkers(), 0), cfg.OperatorBudget)
		rounds := math.Max(1, float64(task.Trials)/float64(cfg.MeasureK))
		rows = append(rows, SensitivityRow{
			Value:       v,
			RawGF:       bestGFLOPS(task),
			RawTimeIter: task.Meas.CostSec() / rounds,
		})
	}
	maxGF, maxTI := 0.0, 0.0
	for _, r := range rows {
		maxGF = math.Max(maxGF, r.RawGF)
		maxTI = math.Max(maxTI, r.RawTimeIter)
	}
	for i := range rows {
		rows[i].Perf = rows[i].RawGF / maxGF
		rows[i].TimePerIter = rows[i].RawTimeIter / maxTI
	}
	fmt.Fprintf(w, "%-8s normalized-performance  normalized-time/iteration\n", param)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8.3g %.3f                   %.3f\n", r.Value, r.Perf, r.TimePerIter)
	}
	return rows
}
