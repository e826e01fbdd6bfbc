package experiments

import (
	"fmt"
	"io"

	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/stats"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// ---------------------------------------------------------------------------
// Figure 1(a): greedy allocation waste on BERT.
// ---------------------------------------------------------------------------

// GreedyWasteRow is one bar of Fig. 1(a): a top-5 BERT subgraph with its
// total trial allocation under Ansor's greedy scheduler and the part of that
// allocation spent on the final 1% of end-to-end improvement.
type GreedyWasteRow struct {
	Subgraph   string
	Total      int
	LastOnePct int
}

// GreedyWasteResult aggregates Fig. 1(a).
type GreedyWasteResult struct {
	Rows []GreedyWasteRow
	// FractionWasted is the share of ALL trials spent on the last 1% of
	// improvement (the paper observes over 35%).
	FractionWasted float64
}

// GreedyAllocation reproduces Fig. 1(a): tune BERT with Ansor and measure how
// many trials the greedy task scheduler spends on the last 1% of improvement.
// The waste phenomenon needs a near-saturated tuning run, so this experiment
// enforces a budget floor regardless of the configured network scale.
func GreedyAllocation(cfg Config, w io.Writer) GreedyWasteResult {
	if cfg.NetworkBudgetScale < 0.12 {
		cfg.NetworkBudgetScale = 0.12
	}
	ansor := runNetwork(cfg, "BERT", 1, "cpu", "ansor", cfg.Seed)
	final := ansor.EstimatedExec()
	// The snapshot where the tuner first got within 1% of its final result.
	snap, _ := ansor.SnapshotAtExec(final * 1.01)

	// Top-5 subgraphs by time contribution.
	type idxContrib struct {
		idx int
		c   float64
	}
	br := ansor.Breakdown()
	var order []idxContrib
	for i, b := range br {
		order = append(order, idxContrib{i, b.WeightedExec})
	}
	for i := 0; i < len(order); i++ { // selection sort: tiny n, stable output
		best := i
		for j := i + 1; j < len(order); j++ {
			if order[j].c > order[best].c {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}

	res := GreedyWasteResult{}
	totalAll, totalWaste := 0, 0
	finalTrials := ansor.MT.TaskTrials()
	for _, t := range finalTrials {
		totalAll += t
	}
	for i := range finalTrials {
		at := 0
		if i < len(snap.TaskTrials) {
			at = snap.TaskTrials[i]
		}
		totalWaste += finalTrials[i] - at
	}
	if totalAll > 0 {
		res.FractionWasted = float64(totalWaste) / float64(totalAll)
	}
	for k := 0; k < 5 && k < len(order); k++ {
		i := order[k].idx
		at := 0
		if i < len(snap.TaskTrials) {
			at = snap.TaskTrials[i]
		}
		res.Rows = append(res.Rows, GreedyWasteRow{
			Subgraph:   br[i].Name,
			Total:      finalTrials[i],
			LastOnePct: finalTrials[i] - at,
		})
	}
	fmt.Fprintf(w, "%-18s total-allocations  allocations-for-last-1%%\n", "subgraph")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-18s %8d           %8d\n", r.Subgraph, r.Total, r.LastOnePct)
	}
	fmt.Fprintf(w, "fraction of all trials spent on last 1%% improvement: %.1f%%\n", res.FractionWasted*100)
	return res
}

// ---------------------------------------------------------------------------
// Figure 1(b): improvement distribution of uniform schedule selection.
// ---------------------------------------------------------------------------

// UniformImprovementResult summarizes the Fig. 1(b) violin: the distribution
// of performance-improvement ratios when next schedules are selected
// uniformly (Ansor-style undirected mutation).
type UniformImprovementResult struct {
	Summary stats.Summary
	// NearZeroFraction is the share of moves whose |improvement| < 2%.
	NearZeroFraction float64
	Hist             *stats.Histogram
}

// UniformImprovement reproduces Fig. 1(b): 200 random programs each mutated
// uniformly for 20 trials; the improvement ratio of each move is recorded.
func UniformImprovement(cfg Config, w io.Writer) UniformImprovementResult {
	sg := workload.GEMM("GEMM-M-512", 1, 512, 512, 512)
	plat := hardware.CPUXeon6226R()
	sim := hardware.NewSimulator(plat)
	rng := xrand.New(cfg.Seed)
	task := search.NewTask(sg, plat, hardware.NewMeasurer(sim, rng.Split()), rng.Split())

	var ratios []float64
	hist := stats.NewHistogram(-1, 1, 40)
	nearZero := 0
	for p := 0; p < 200; p++ {
		sk := task.Sketches[rng.Intn(len(task.Sketches))]
		cur := schedule.NewRandom(sk, task.NumUnroll(), rng)
		curPerf := 1 / sim.Exec(cur)
		for m := 0; m < 20; m++ {
			next := cur.Mutate(rng)
			nextPerf := 1 / sim.Exec(next)
			r := (nextPerf - curPerf) / curPerf
			ratios = append(ratios, r)
			hist.Add(r)
			if r > -0.02 && r < 0.02 {
				nearZero++
			}
			cur, curPerf = next, nextPerf
		}
	}
	res := UniformImprovementResult{
		Summary:          stats.Summarize(ratios),
		NearZeroFraction: float64(nearZero) / float64(len(ratios)),
		Hist:             hist,
	}
	fmt.Fprintf(w, "improvement ratio of %d uniform moves: mean=%.3f p25=%.3f median=%.3f p75=%.3f\n",
		res.Summary.N, res.Summary.Mean, res.Summary.P25, res.Summary.P50, res.Summary.P75)
	fmt.Fprintf(w, "moves with |improvement| < 2%%: %.1f%% (most improvements are around 0)\n", res.NearZeroFraction*100)
	return res
}

// ---------------------------------------------------------------------------
// Figure 1(c): fixed-length search-path efficiency on Flextensor.
// ---------------------------------------------------------------------------

// FixedLengthWasteResult summarizes Fig. 1(c): the histogram of relative
// critical-step positions under Flextensor's fixed-length search.
type FixedLengthWasteResult struct {
	Bins []int
	// EarlyFraction is the share of tracks peaking within the first 40% of
	// their path (the paper observes "most").
	EarlyFraction float64
}

// FixedLengthWaste reproduces Fig. 1(c) by running Flextensor over the GEMM
// suite and collecting critical-step positions.
func FixedLengthWaste(cfg Config, w io.Writer) FixedLengthWasteResult {
	plat := hardware.CPUXeon6226R()
	var all []float64
	for i, geom := range []string{"GEMM-S", "GEMM-M", "GEMM-L"} {
		sg := workload.SuiteFor(geom, 1)[0]
		task := tuneOperator(sg, plat, "flextensor", cfg.OperatorBudget/2, cfg.MeasureK, cfg.Seed+uint64(i), cfg.EffectiveWorkers())
		all = append(all, task.TrackPositions...)
	}
	res := FixedLengthWasteResult{Bins: positionBins(all)}
	early := 0
	for _, p := range all {
		if p <= 0.4 {
			early++
		}
	}
	if len(all) > 0 {
		res.EarlyFraction = float64(early) / float64(len(all))
	}
	fmt.Fprintf(w, "position of best schedule in fixed-length search paths (%d tracks):\n", len(all))
	for i, c := range res.Bins {
		fmt.Fprintf(w, "%3d%%-%3d%%  %d\n", i*10, (i+1)*10, c)
	}
	fmt.Fprintf(w, "tracks peaking within first 40%% of path: %.1f%%\n", res.EarlyFraction*100)
	return res
}

// ---------------------------------------------------------------------------
// Table 1: system comparison matrix.
// ---------------------------------------------------------------------------

// Table1 prints the qualitative system-comparison matrix of the paper's
// Table 1, cross-checked against the engines actually implemented here.
func Table1(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-22s %-22s %-26s %-30s\n", "system",
		"subgraph selection", "sketch selection", "schedule selection", "track time-allocation")
	fmt.Fprintf(w, "%-12s %-22s %-22s %-26s %-30s\n", "ansor",
		"greedy selection", "uniform distribution", "uniform distribution", "greedy allocation")
	fmt.Fprintf(w, "%-12s %-22s %-22s %-26s %-30s\n", "flextensor",
		"not supported", "fixed sketch", "RL agent", "uniform allocation")
	fmt.Fprintf(w, "%-12s %-22s %-22s %-26s %-30s\n", "harl",
		"MAB RL (SW-UCB)", "MAB RL (SW-UCB)", "RL actor network", "estimation on future perf")
}
