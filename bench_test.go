// Benchmarks that regenerate every table and figure of the paper at scaled
// budgets (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results). Each experiment benchmark performs one
// full tuning comparison per iteration and reports the headline quantity of
// the corresponding figure as a custom metric. Component micro-benchmarks for
// the substrates follow at the bottom.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFig5 -benchtime=1x
package harl

import (
	"fmt"
	"io"
	"math"
	"testing"

	"harl/internal/costmodel"
	"harl/internal/experiments"
	"harl/internal/hardware"
	"harl/internal/rl"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// benchCfg returns the budget-scaled experiment configuration used by the
// experiment benchmarks: small enough that the full bench suite completes in
// minutes, large enough that every comparison keeps its shape.
func benchCfg() experiments.Config {
	cfg := experiments.Scaled()
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
		res := experiments.GreedyAllocation(benchCfg(), io.Discard)
		b.ReportMetric(res.FractionWasted*100, "%trials-on-last-1pct")
	}
}

// BenchmarkFig1bUniformImprovement regenerates Fig. 1(b): the improvement
// distribution of uniform next-schedule selection.
func BenchmarkFig1bUniformImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.UniformImprovement(benchCfg(), io.Discard)
		b.ReportMetric(res.NearZeroFraction*100, "%moves-near-zero")
		b.ReportMetric(res.Summary.P50, "median-improvement")
	}
}

// BenchmarkFig1cFixedLengthWaste regenerates Fig. 1(c): critical-step
// positions of fixed-length (Flextensor) search paths.
func BenchmarkFig1cFixedLengthWaste(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.FixedLengthWaste(benchCfg(), io.Discard)
		b.ReportMetric(res.EarlyFraction*100, "%tracks-peaking-first-40pct")
	}
}

// BenchmarkFig5OperatorPerformance regenerates Fig. 5 (and Fig. 6's search
// times, which come from the same runs): Ansor vs HARL across the Table-6
// operator categories.
func BenchmarkFig5OperatorPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.OperatorGrid(benchCfg(), io.Discard)
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
		rows := experiments.OperatorGrid(benchCfg(), io.Discard)
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
		tr := experiments.AblationTrajectory(benchCfg(), io.Discard)
		b.ReportMetric(tr.FinalGF["harl"]/tr.FinalGF["ansor"], "harl/ansor-final-perf")
		b.ReportMetric(tr.FinalGF["hierarchical-rl"]/tr.FinalGF["ansor"], "hier-rl/ansor-final-perf")
	}
}

// BenchmarkFig7bAdaptiveStoppingHistogram regenerates Fig. 7(b): critical-
// step positions under fixed-length vs adaptive-stopping search.
func BenchmarkFig7bAdaptiveStoppingHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.CriticalSteps(benchCfg(), io.Discard)
		b.ReportMetric(res.AdaptiveLastDecile*100, "%adaptive-critical-in-last-10pct")
		b.ReportMetric(res.FixedLastDecile*100, "%fixed-critical-in-last-10pct")
	}
}

// BenchmarkFig8NetworkPerformance regenerates Fig. 8 (and Fig. 9's search
// times): end-to-end network tuning, Ansor vs HARL.
func BenchmarkFig8NetworkPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NetworkGrid(benchCfg(), io.Discard)
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
		rows := experiments.NetworkGrid(benchCfg(), io.Discard)
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
		res := experiments.Table4(benchCfg(), io.Discard)
		b.ReportMetric(res.MeasuredSpeedup, "measured-speedup")
		b.ReportMetric(res.EstimatedSpeedup, "estimated-speedup")
		b.ReportMetric(res.NoMABSpeedup, "no-mab-speedup")
	}
}

// BenchmarkFig10AllocationAblation regenerates Fig. 10: subgraph trial
// allocations with and without the subgraph MAB.
func BenchmarkFig10AllocationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AllocationAblation(benchCfg(), io.Discard)
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
		rows := experiments.LambdaSensitivity(benchCfg(), io.Discard)
		b.ReportMetric(rows[0].TimePerIter, "lambda10-time/iter")
		b.ReportMetric(rows[len(rows)-1].TimePerIter, "lambda80-time/iter")
	}
}

// BenchmarkTable8RhoSensitivity regenerates Table 8: ρ ∈ {0.75,0.5,0.25}.
func BenchmarkTable8RhoSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RhoSensitivity(benchCfg(), io.Discard)
		b.ReportMetric(rows[1].Perf, "rho0.5-perf")
		b.ReportMetric(rows[0].Perf, "rho0.75-perf")
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkSimulatorExec measures one analytical performance evaluation.
func BenchmarkSimulatorExec(b *testing.B) {
	sg := workload.GEMM("g", 1, 1024, 1024, 1024)
	sim := hardware.NewSimulator(hardware.CPUXeon6226R())
	rng := xrand.New(1)
	sks := sketch.Generate(sg)
	s := schedule.NewRandom(sks[0], 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.Exec(s)
	}
}

// BenchmarkScheduleFeatures measures feature extraction: "cold" pays one
// Clone plus the full computation (the mutation-path cost — every Apply and
// Mutate produces a fresh schedule whose vector is computed on first read),
// "cached" is the memoized re-read every later consumer pays.
func BenchmarkScheduleFeatures(b *testing.B) {
	sg := workload.Conv2D("c", 1, 56, 56, 64, 64, 3, 1, 1)
	rng := xrand.New(1)
	s := schedule.NewRandom(sketch.Generate(sg)[0], 4, rng)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Clone().Features()
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		s.Features()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Features()
		}
	})
}

// BenchmarkScoreBatch measures the engines' candidate-scoring hot path: 512
// candidates scored against a trained cost model through Task.ScoreBatch
// (memoized features, pooled chunk buffers, write-into batch prediction).
func BenchmarkScoreBatch(b *testing.B) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	plat := hardware.CPUXeon6226R()
	rng := xrand.New(1)
	task := search.NewTask(sg, plat, hardware.NewMeasurer(hardware.NewSimulator(plat), rng.Split()), rng.Split())
	task.ExploreRandom(32)
	batch := make([]*schedule.Schedule, 512)
	for i := range batch {
		batch[i] = task.RandomSchedule(task.Sketches[i%len(task.Sketches)])
	}
	task.ScoreBatch(batch) // warm the feature memos and score buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = task.ScoreBatch(batch)
	}
}

// BenchmarkScheduleApply measures one joint action application.
func BenchmarkScheduleApply(b *testing.B) {
	sg := workload.GEMM("g", 1, 1024, 1024, 1024)
	rng := xrand.New(1)
	s := schedule.NewRandom(sketch.Generate(sg)[0], 4, rng)
	a := schedule.Action{Tiling: 5, ComputeAt: 2, Parallel: 2, Unroll: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = s.Apply(a)
	}
}

// BenchmarkCostModelRefit measures a full GBDT refit on 512 samples.
func BenchmarkCostModelRefit(b *testing.B) {
	rng := xrand.New(1)
	m := costmodel.New(costmodel.DefaultParams())
	for i := 0; i < 512; i++ {
		x := make([]float64, 24)
		y := 0.0
		for j := range x {
			x[j] = rng.Float64()
			y += x[j] * float64(j%5)
		}
		m.Add(x, y)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Refit()
	}
}

// BenchmarkCostModelPredict measures one single-row prediction — HARL's
// per-track Task.Score, 97% of its predict calls — rotating over held-out
// rows: every caller scores a schedule it has not scored before, and
// re-predicting one vector would time a branch predictor that has memorized
// that vector's path through every tree.
func BenchmarkCostModelPredict(b *testing.B) {
	rng := xrand.New(1)
	m := costmodel.New(costmodel.DefaultParams())
	row := func() []float64 {
		x := make([]float64, 24)
		for j := range x {
			x[j] = rng.Float64()
		}
		return x
	}
	for i := 0; i < 256; i++ {
		x := row()
		m.Add(x, x[0]+2*x[1])
	}
	m.Refit()
	held := make([][]float64, 256)
	for i := range held {
		held[i] = row()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(held[i%len(held)])
	}
}

// BenchmarkRefit measures a full GBDT refit across training-set sizes — the
// cost that offline pretraining pays once up front and every measurement
// round pays again online. The samples-N rows are 24 uniform features, which
// fill all 32 bins of every feature; real-512 refits on what a session
// actually stores — feature rows of random Conv3D schedules (41 features, ~5
// occupied bins each) with simulated log-throughput targets — and is the one
// that tracks the workload; real-512-portable is the same refit with the
// histogram fill on its Go loop instead of the host's lanes.
func BenchmarkRefit(b *testing.B) {
	refit := func(name string, n int, sample func() ([]float64, float64)) {
		xs, ys := make([][]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = sample()
		}
		run := func(name string) {
			b.Run(name, func(b *testing.B) {
				m := costmodel.New(costmodel.DefaultParams())
				for i := range xs {
					m.Add(xs[i], ys[i])
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Refit()
				}
			})
		}
		run(name)
		if name == "real-512" {
			defer costmodel.PortableFill()()
			run(name + "-portable")
		}
	}
	for _, n := range []int{128, 512, 2048} {
		rng := xrand.New(1)
		refit(fmt.Sprintf("samples-%d", n), n, func() ([]float64, float64) {
			x := make([]float64, 24)
			y := 0.0
			for j := range x {
				x[j] = rng.Float64()
				y += x[j] * float64(j%5)
			}
			return x, y
		})
	}
	rng := xrand.New(1)
	sks := sketch.Generate(workload.SuiteFor("C3D", 1)[0])
	sim := hardware.NewSimulator(hardware.CPUXeon6226R())
	refit("real-512", 512, func() ([]float64, float64) {
		s := schedule.NewRandom(sks[rng.Intn(len(sks))], 4, rng)
		return s.Features(), math.Log(1 / sim.Exec(s))
	})
}

// BenchmarkScheduleKey measures the schedule identity hash behind every
// pool/seen/measured map lookup of the engines; it must not allocate.
func BenchmarkScheduleKey(b *testing.B) {
	s := schedule.NewRandom(sketch.Generate(workload.SuiteFor("C3D", 1)[0])[0], 4, xrand.New(1))
	b.ReportAllocs()
	var k uint64
	for i := 0; i < b.N; i++ {
		k ^= s.Key()
	}
	benchKeySink = k
}

var benchKeySink uint64

// BenchmarkPredictBatch measures the batched prediction path (one hot tree
// at a time over the whole feature matrix) against the sequential
// per-sample loop it replaced.
func BenchmarkPredictBatch(b *testing.B) {
	rng := xrand.New(1)
	m := costmodel.New(costmodel.DefaultParams())
	for i := 0; i < 512; i++ {
		x := make([]float64, 24)
		for j := range x {
			x[j] = rng.Float64()
		}
		m.Add(x, x[0]+2*x[1])
	}
	m.Refit()
	batch := make([][]float64, 256)
	for i := range batch {
		x := make([]float64, 24)
		for j := range x {
			x[j] = rng.Float64()
		}
		batch[i] = x
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.PredictBatch(batch)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		out := make([]float64, len(batch))
		for i := 0; i < b.N; i++ {
			for j, x := range batch {
				out[j] = m.Predict(x)
			}
		}
	})
}

// BenchmarkPPOStep measures one policy query plus one training tick.
func BenchmarkPPOStep(b *testing.B) {
	rng := xrand.New(1)
	agent := rl.NewAgent(24, []int{197, 3, 3, 3}, rl.DefaultConfig(), rng)
	state := make([]float64, 24)
	for i := range state {
		state[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := agent.Act(state)
		agent.Observe(rl.Transition{State: state, Acts: d.Acts, OldLogP: d.LogProb, Reward: 0.1, Value: d.Value})
		agent.Tick()
	}
}

// BenchmarkPPOTrain measures one PPO update (Epochs minibatches of batched
// forward/backward passes plus Adam) at the benchmark's GEMM-1024³ dims over
// a warm 1024-transition replay buffer — the layer that is ~80% of a HARL
// session.
func BenchmarkPPOTrain(b *testing.B) {
	rng := xrand.New(1)
	agent := rl.NewAgent(23, []int{101, 3, 3, 3}, rl.DefaultConfig(), rng)
	for i := 0; i < 1024; i++ {
		state := make([]float64, 23)
		for j := range state {
			state[j] = rng.Float64()
		}
		d := agent.Act(state)
		agent.Observe(rl.Transition{State: state, Acts: d.Acts, OldLogP: d.LogProb,
			Reward: rng.Float64() - 0.5, Value: d.Value, NextValue: agent.Value(state)})
	}
	agent.Train() // warm the scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Train()
	}
}

// BenchmarkSketchGeneration measures sketch enumeration for a fused subgraph.
func BenchmarkSketchGeneration(b *testing.B) {
	sg := workload.Conv2DReLU("c", 1, 1, 56, 56, 64, 64, 3, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sketch.Generate(sg)
	}
}
