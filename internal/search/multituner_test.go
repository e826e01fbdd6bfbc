package search

import (
	"context"
	"math"
	"reflect"
	"testing"

	"harl/internal/hardware"
	"harl/internal/texpr"
	"harl/internal/workload"
)

func bertGraphs(t *testing.T) []*texpr.Subgraph {
	t.Helper()
	return workload.BERT(1).Subgraphs
}

func runMulti(t *testing.T, graphs []*texpr.Subgraph, mk func() Engine, cfg MultiTunerConfig, seed uint64, budget int) *MultiTuner {
	t.Helper()
	tasks := NewTaskSet(graphs, hardware.CPUXeon6226R(), seed)
	mt := NewMultiTuner(tasks, mk, cfg)
	mt.RunCtx(context.Background(), budget)
	return mt
}

// The wave clamp lands every budget exactly — below one round, below one
// wave, on a round boundary and past one — and a budget that covers a round
// per task visits every task.
func TestMultiTunerHonorsBudget(t *testing.T) {
	for _, rt := range []int{8, 16} {
		for _, budget := range []int{1, 7, 20, 120, 161} {
			cfg := DefaultMultiTunerConfig()
			cfg.RoundTrials = rt
			mt := runMulti(t, bertGraphs(t), func() Engine { return NewRandom() }, cfg, 3, budget)
			if mt.Trials() != budget {
				t.Errorf("RoundTrials %d, budget %d: spent %d trials", rt, budget, mt.Trials())
			}
			for i, task := range mt.Tasks {
				if task.Trials > 0 && task.Best == nil {
					t.Fatalf("RoundTrials %d, budget %d: task %d measured but has no best", rt, budget, i)
				}
			}
			if budget >= len(mt.Tasks)*rt && math.IsInf(mt.EstimatedExec(), 1) {
				t.Errorf("RoundTrials %d, budget %d: every task must be visited (estimated exec finite)", rt, budget)
			}
			if mt.CostSec() <= 0 {
				t.Fatalf("RoundTrials %d, budget %d: search cost must accumulate", rt, budget)
			}
		}
	}
}

// The core determinism contract of the parallel engine: the same seed yields
// byte-identical results for workers=1 and workers=8, for every allocation
// policy and for the heavy RL engine as well as the random baseline.
func TestMultiTunerWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker determinism sweep is slow")
	}
	engines := map[string]func() Engine{
		"random": func() Engine { return NewRandom() },
		"harl":   func() Engine { return NewHARL(DefaultHARLConfig()) },
		"ansor":  func() Engine { return NewAnsor(DefaultAnsorConfig()) },
	}
	for name, mk := range engines {
		for _, policy := range []AllocPolicy{AllocGradient, AllocRoundRobin, AllocSWUCB} {
			cfg := DefaultMultiTunerConfig()
			cfg.RoundTrials = 8
			cfg.Policy = policy
			cfg.Workers = 1
			serial := runMulti(t, bertGraphs(t), mk, cfg, 17, 160)
			cfg.Workers = 8
			parallel := runMulti(t, bertGraphs(t), mk, cfg, 17, 160)

			if serial.Trials() != parallel.Trials() {
				t.Fatalf("%s/%v: trials %d vs %d", name, policy, serial.Trials(), parallel.Trials())
			}
			if serial.CostSec() != parallel.CostSec() {
				t.Fatalf("%s/%v: cost %v vs %v", name, policy, serial.CostSec(), parallel.CostSec())
			}
			for i := range serial.Tasks {
				st, pt := serial.Tasks[i], parallel.Tasks[i]
				if st.BestExec != pt.BestExec {
					t.Fatalf("%s/%v task %d: best exec %v vs %v", name, policy, i, st.BestExec, pt.BestExec)
				}
				if (st.Best == nil) != (pt.Best == nil) {
					t.Fatalf("%s/%v task %d: best presence diverged", name, policy, i)
				}
				if st.Best != nil && st.Best.Key() != pt.Best.Key() {
					t.Fatalf("%s/%v task %d: best schedule diverged", name, policy, i)
				}
				if len(st.BestLog) != len(pt.BestLog) {
					t.Fatalf("%s/%v task %d: log length diverged", name, policy, i)
				}
				for j := range st.BestLog {
					if st.BestLog[j] != pt.BestLog[j] || st.TrialCost[j] != pt.TrialCost[j] {
						t.Fatalf("%s/%v task %d: log entry %d diverged", name, policy, i, j)
					}
				}
			}
			// Allocation decisions must match wave for wave.
			if len(serial.History) != len(parallel.History) {
				t.Fatalf("%s/%v: wave count diverged", name, policy)
			}
			for w := range serial.History {
				sw, pw := serial.History[w].Tasks, parallel.History[w].Tasks
				if len(sw) != len(pw) {
					t.Fatalf("%s/%v wave %d: width diverged", name, policy, w)
				}
				for k := range sw {
					if sw[k] != pw[k] {
						t.Fatalf("%s/%v wave %d: selection diverged (%v vs %v)", name, policy, w, sw, pw)
					}
				}
			}
		}
	}
}

func TestMultiTunerRoundRobinCyclesTasks(t *testing.T) {
	graphs := bertGraphs(t)
	cfg := DefaultMultiTunerConfig()
	cfg.Policy = AllocRoundRobin
	cfg.RoundTrials = 4
	cfg.WaveWidth = 3
	tasks := NewTaskSet(graphs, hardware.CPUXeon6226R(), 9)
	mt := NewMultiTuner(tasks, func() Engine { return NewRandom() }, cfg)
	// A budget of 2·n full waves: 3 tasks × 4 trials each.
	mt.RunCtx(context.Background(), 2*len(tasks)*3*4)
	seen := make([]int, len(tasks))
	for _, snap := range mt.History[:2*len(tasks)] {
		for _, a := range snap.Tasks {
			seen[a]++
		}
	}
	// 2·n waves of width 3 over n tasks: every task selected exactly 6 times.
	for i, n := range seen {
		if n != 6 {
			t.Fatalf("task %d selected %d times (want 6): %v", i, n, seen)
		}
	}
}

func TestMultiTunerGradientPrefersHeavyTask(t *testing.T) {
	// Two GEMM subgraphs, one with a 50× weight: after the mandatory first
	// visits, gradient allocation must give the heavy task more rounds.
	light := workload.GEMM("light", 1, 128, 128, 128)
	heavy := workload.GEMM("heavy", 1, 256, 256, 256)
	heavy.Weight = 50
	cfg := DefaultMultiTunerConfig()
	cfg.RoundTrials = 8
	cfg.WaveWidth = 1
	mt := runMulti(t, []*texpr.Subgraph{light, heavy}, func() Engine { return NewRandom() }, cfg, 21, 400)
	trials := mt.TaskTrials()
	if trials[1] <= trials[0] {
		t.Fatalf("heavy task got %d trials vs light %d", trials[1], trials[0])
	}
}

// The subgraph bandit advances one task per wave, pulls every arm once (in
// index order) before any reward steers it, and is a pure function of the
// seed: same seed, same allocation; and it is not the greedy allocator.
func TestMultiTunerSWUCBVisitsEveryArmFirst(t *testing.T) {
	graphs := bertGraphs(t)
	run := func(policy AllocPolicy, seed uint64) [][]int {
		cfg := DefaultMultiTunerConfig()
		cfg.RoundTrials = 4
		cfg.WaveWidth = 1
		cfg.Policy = policy
		mt := runMulti(t, graphs, func() Engine { return NewRandom() }, cfg, seed, 4*4*len(graphs))
		var sel [][]int
		for _, s := range mt.History {
			sel = append(sel, s.Tasks)
		}
		return sel
	}
	a := run(AllocSWUCB, 13)
	if len(a) != 4*len(graphs) {
		t.Fatalf("%d waves for a %d-round budget", len(a), 4*len(graphs))
	}
	for w, sel := range a {
		if len(sel) != 1 {
			t.Fatalf("wave %d advanced %v, want one task", w, sel)
		}
		if w < len(graphs) && sel[0] != w {
			t.Fatalf("wave %d pulled arm %d before every arm was visited", w, sel[0])
		}
	}
	if !reflect.DeepEqual(a, run(AllocSWUCB, 13)) {
		t.Fatal("SW-UCB allocation is not reproducible from the seed")
	}
	if reflect.DeepEqual(a, run(AllocGradient, 13)) {
		t.Fatal("SW-UCB allocated exactly like the greedy gradient policy")
	}
}

func TestNewTaskSetIndependentStreams(t *testing.T) {
	graphs := bertGraphs(t)
	tasks := NewTaskSet(graphs, hardware.CPUXeon6226R(), 5)
	if len(tasks) != len(graphs) {
		t.Fatalf("task count %d", len(tasks))
	}
	seen := make(map[*hardware.Measurer]bool)
	for _, task := range tasks {
		if seen[task.Meas] {
			t.Fatal("tasks must not share measurers")
		}
		seen[task.Meas] = true
	}
	// Same seed reproduces the same streams.
	again := NewTaskSet(graphs, hardware.CPUXeon6226R(), 5)
	a := tasks[0].RandomSchedule(tasks[0].Sketches[0])
	b := again[0].RandomSchedule(again[0].Sketches[0])
	if a.Key() != b.Key() {
		t.Fatal("task RNG streams not reproducible from seed")
	}
}
