// Benchmarks that regenerate every table and figure of the paper at scaled
// budgets (the experiment index is the README section "Regenerating the
// paper's tables and figures"). Each benchmark performs one full tuning
// comparison per iteration and reports the headline quantity of the
// corresponding figure as a custom metric.
//
// Run everything:  go test -bench=. -benchtime=1x ./internal/experiments
// One experiment:  go test -bench=BenchmarkFig5 -benchtime=1x ./internal/experiments
package experiments

import (
	"io"
	"testing"
)

// benchCfg returns the budget-scaled experiment configuration used by the
// experiment benchmarks: small enough that the full bench suite completes in
// minutes, large enough that every comparison keeps its shape.
func benchCfg() Config {
	cfg := Scaled()
	cfg.OperatorBudget = 480
	cfg.ConfigsPerCategory = 1
	cfg.Batches = []int{1}
	cfg.NetworkBudgetScale = 0.015
	cfg.NetworkPlatforms = []string{"cpu"}
	return cfg
}

// BenchmarkFig1aGreedyAllocation regenerates Fig. 1(a): trials the greedy
// task scheduler wastes on the last 1% of BERT improvement.
func BenchmarkFig1aGreedyAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := greedyAllocation(benchCfg(), io.Discard)
		b.ReportMetric(res.FractionWasted*100, "%trials-on-last-1pct")
	}
}

// BenchmarkFig1bUniformImprovement regenerates Fig. 1(b): the improvement
// distribution of uniform next-schedule selection.
func BenchmarkFig1bUniformImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := uniformImprovement(benchCfg(), io.Discard)
		b.ReportMetric(res.NearZeroFraction*100, "%moves-near-zero")
		b.ReportMetric(res.Summary.P50, "median-improvement")
	}
}

// BenchmarkFig1cFixedLengthWaste regenerates Fig. 1(c): critical-step
// positions of fixed-length (Flextensor) search paths.
func BenchmarkFig1cFixedLengthWaste(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fixedLengthWaste(benchCfg(), io.Discard)
		b.ReportMetric(res.EarlyFraction*100, "%tracks-peaking-first-40pct")
	}
}

// BenchmarkFig5OperatorPerformance regenerates Fig. 5 (and Fig. 6's search
// times, which come from the same runs): Ansor vs HARL across the Table-6
// operator categories.
func BenchmarkFig5OperatorPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := operatorGrid(benchCfg(), io.Discard)
		speedup, n := 0.0, 0
		for _, r := range rows {
			speedup += r.Speedup
			n++
		}
		b.ReportMetric(speedup/float64(n), "mean-harl/ansor-perf")
	}
}

// BenchmarkFig6OperatorSearchTime reports the Fig. 6 metric from the same
// grid: HARL's time to reach Ansor's final program quality.
func BenchmarkFig6OperatorSearchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := operatorGrid(benchCfg(), io.Discard)
		ratio, n := 0.0, 0
		for _, r := range rows {
			if r.TimeRatio > 0 {
				ratio += r.TimeRatio
				n++
			}
		}
		b.ReportMetric(ratio/float64(n), "mean-harl/ansor-search-time")
	}
}

// BenchmarkFig7aAblationTrajectory regenerates Fig. 7(a): Ansor vs
// Hierarchical-RL vs HARL convergence on the 1024³ GEMM.
func BenchmarkFig7aAblationTrajectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := ablationTrajectory(benchCfg(), io.Discard)
		b.ReportMetric(tr.FinalGF["harl"]/tr.FinalGF["ansor"], "harl/ansor-final-perf")
		b.ReportMetric(tr.FinalGF["hierarchical-rl"]/tr.FinalGF["ansor"], "hier-rl/ansor-final-perf")
	}
}

// BenchmarkFig7bAdaptiveStoppingHistogram regenerates Fig. 7(b): critical-
// step positions under fixed-length vs adaptive-stopping search.
func BenchmarkFig7bAdaptiveStoppingHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := criticalSteps(benchCfg(), io.Discard)
		b.ReportMetric(res.AdaptiveLastDecile*100, "%adaptive-critical-in-last-10pct")
		b.ReportMetric(res.FixedLastDecile*100, "%fixed-critical-in-last-10pct")
	}
}

// BenchmarkFig8NetworkPerformance regenerates Fig. 8 (and Fig. 9's search
// times): end-to-end network tuning, Ansor vs HARL.
func BenchmarkFig8NetworkPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := networkGrid(benchCfg(), io.Discard)
		speedup, n := 0.0, 0
		for _, r := range rows {
			speedup += r.Speedup
			n++
		}
		b.ReportMetric(speedup/float64(n), "mean-harl/ansor-net-perf")
	}
}

// BenchmarkFig9NetworkSearchTime reports the Fig. 9 metric from the same grid.
func BenchmarkFig9NetworkSearchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := networkGrid(benchCfg(), io.Discard)
		ratio, n := 0.0, 0
		for _, r := range rows {
			if r.AnsorTime > 0 {
				ratio += r.HARLTime / r.AnsorTime
				n++
			}
		}
		b.ReportMetric(ratio/float64(n), "mean-harl/ansor-net-search-time")
	}
}

// BenchmarkTable4BertBreakdown regenerates Table 4: the BERT subgraph
// breakdown with the subgraph-MAB ablation.
func BenchmarkTable4BertBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := table4(benchCfg(), io.Discard)
		b.ReportMetric(res.MeasuredSpeedup, "measured-speedup")
		b.ReportMetric(res.EstimatedSpeedup, "estimated-speedup")
		b.ReportMetric(res.NoMABSpeedup, "no-mab-speedup")
	}
}

// BenchmarkFig10AllocationAblation regenerates Fig. 10: subgraph trial
// allocations with and without the subgraph MAB.
func BenchmarkFig10AllocationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := allocationAblation(benchCfg(), io.Discard)
		gemmHARL, gemmNoMAB := 0, 0
		for _, r := range rows {
			if r.Subgraph != "Softmax" {
				gemmHARL += r.HARLTotal
				gemmNoMAB += r.NoMABTotal
			}
		}
		if gemmNoMAB > 0 {
			b.ReportMetric(float64(gemmHARL)/float64(gemmNoMAB), "gemm-trials-mab/greedy")
		}
	}
}

// BenchmarkTable7LambdaSensitivity regenerates Table 7: λ ∈ {10,20,40,80}.
func BenchmarkTable7LambdaSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := lambdaSensitivity(benchCfg(), io.Discard)
		b.ReportMetric(rows[0].TimePerIter, "lambda10-time/iter")
		b.ReportMetric(rows[len(rows)-1].TimePerIter, "lambda80-time/iter")
	}
}

// BenchmarkTable8RhoSensitivity regenerates Table 8: ρ ∈ {0.75,0.5,0.25}.
func BenchmarkTable8RhoSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := rhoSensitivity(benchCfg(), io.Discard)
		b.ReportMetric(rows[1].Perf, "rho0.5-perf")
		b.ReportMetric(rows[0].Perf, "rho0.75-perf")
	}
}
