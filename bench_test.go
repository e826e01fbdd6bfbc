// Component micro-benchmarks for the substrates the tuner is built on: the
// simulator, schedule features and keys, batch scoring, the cost model, the
// PPO step and update, and sketch generation. The paper-figure benchmarks
// live beside the experiments, in internal/experiments/bench_test.go.
//
// Run everything:  go test -bench=. -benchmem
// The hot path:    make bench-hot
package harl

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"harl/internal/costmodel"
	"harl/internal/hardware"
	"harl/internal/rl"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/workload"
	"harl/internal/xrand"
)

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

// BenchmarkCostModelPredict measures one single-row prediction, rotating
// over held-out rows: every caller scores a schedule it has not scored before, and
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
// histogram fill and boundary scans on their Go loops instead of the lanes.
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
			defer costmodel.Portable()()
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
// pool/seen/measured map lookup of the engines: "cold" pays one Clone plus
// the hash (a fresh schedule's first lookup), "cached" the memoized re-read
// every later lookup pays, which must not allocate.
func BenchmarkScheduleKey(b *testing.B) {
	s := schedule.NewRandom(sketch.Generate(workload.SuiteFor("C3D", 1)[0])[0], 4, xrand.New(1))
	var k uint64
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k ^= s.Clone().Key()
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k ^= s.Key()
		}
	})
	benchKeySink = k
}

// BenchmarkScheduleMutate measures one evolutionary child as Ansor's
// generation loop makes it, at C3D dims: Mutate (a flat Clone plus one random
// move), then the child's Key and Features.
func BenchmarkScheduleMutate(b *testing.B) {
	s := schedule.NewRandom(sketch.Generate(workload.SuiteFor("C3D", 1)[0])[0], 4, xrand.New(1))
	rng := xrand.New(2)
	b.ReportAllocs()
	var k uint64
	for i := 0; i < b.N; i++ {
		c := s.Mutate(rng)
		k ^= c.Key()
		_ = c.Features()
	}
	benchKeySink = k
}

var benchKeySink uint64

// BenchmarkMarshalSteps measures the text form of a Conv2D schedule that every
// journal record and fleet trial carries (schedule.MarshalSteps).
func BenchmarkMarshalSteps(b *testing.B) {
	s := schedule.NewRandom(sketch.Generate(workload.SuiteFor("C2D", 1)[0])[0], 4, xrand.New(1))
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(s.MarshalSteps())
	}
	benchKeySink = uint64(n)
}

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

// BenchmarkPPOWindowStep measures one HARL window step at the GEMM-1024³
// agent's dims: 32 tracks act in one ActBatch, are valued in one ValueBatch and
// observed, then the agent ticks, training on every other step.
func BenchmarkPPOWindowStep(b *testing.B) {
	const tracks, dim = 32, 23
	rng := xrand.New(1)
	agent := rl.NewAgent(dim, []int{101, 3, 3, 3}, rl.DefaultConfig(), rng)
	x := make([]float64, tracks*dim)
	for i := range x {
		x[i] = rng.Float64()
	}
	decs, vals := make([]rl.Decision, tracks), make([]float64, tracks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.ActBatch(decs, x)
		agent.ValueBatch(vals, x)
		for t, d := range decs {
			agent.Observe(rl.Transition{State: x[t*dim : (t+1)*dim], Acts: d.Acts, OldLogP: d.LogProb,
				Reward: 0.01, Value: d.Value, NextValue: vals[t]})
		}
		agent.Tick()
	}
}

// BenchmarkPPOTrain measures one PPO update (Epochs minibatches of batched
// forward/backward passes plus Adam, the critic's half on a second goroutine)
// at the benchmark's GEMM-1024³ dims over a warm 1024-transition replay
// buffer — the layer that is ~80% of a HARL session.
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

// BenchmarkPPOTrainOneProc is BenchmarkPPOTrain at GOMAXPROCS 1, whatever
// -cpu says: the update's two halves then run one after the other, so this
// prices the fork itself.
func BenchmarkPPOTrainOneProc(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	BenchmarkPPOTrain(b)
}

// BenchmarkSketchGeneration measures sketch enumeration for a fused subgraph.
func BenchmarkSketchGeneration(b *testing.B) {
	sg := workload.Conv2DReLU("c", 1, 1, 56, 56, 64, 64, 3, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sketch.Generate(sg)
	}
}
