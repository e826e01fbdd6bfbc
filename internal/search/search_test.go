package search

import (
	"context"
	"math"
	"testing"

	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/workload"
	"harl/internal/xrand"
)

func newTestTask(t *testing.T, sg *texpr.Subgraph, seed uint64) (*Task, *hardware.Simulator) {
	t.Helper()
	plat := hardware.CPUXeon6226R()
	sim := hardware.NewSimulator(plat)
	rng := xrand.New(seed)
	return NewTask(sg, plat, hardware.NewMeasurer(sim, rng.Split()), rng.Split()), sim
}

func TestTaskMeasureBatchDedup(t *testing.T) {
	task, _ := newTestTask(t, workload.GEMM("g", 1, 128, 128, 128), 1)
	s := task.RandomSchedule(task.Sketches[0])
	execs := task.MeasureBatch([]*schedule.Schedule{s, s})
	if math.IsNaN(execs[0]) {
		t.Fatal("first measurement must succeed")
	}
	if !math.IsNaN(execs[1]) {
		t.Fatal("duplicate in the same batch must be skipped")
	}
	if !task.Seen(s) {
		t.Fatal("Seen must report measured schedules")
	}
	if task.Trials != 1 {
		t.Fatalf("trials %d", task.Trials)
	}
}

func TestTaskBestTracking(t *testing.T) {
	task, sim := newTestTask(t, workload.GEMM("g", 1, 256, 256, 256), 2)
	var batch []*schedule.Schedule
	for i := 0; i < 32; i++ {
		batch = append(batch, task.RandomSchedule(task.Sketches[i%len(task.Sketches)]))
	}
	task.MeasureBatch(batch)
	if task.Best == nil {
		t.Fatal("no best recorded")
	}
	// Best log must be non-increasing and end at BestExec.
	for i := 1; i < len(task.BestLog); i++ {
		if task.BestLog[i] > task.BestLog[i-1] {
			t.Fatal("best log not monotone")
		}
	}
	if task.BestLog[len(task.BestLog)-1] != task.BestExec {
		t.Fatal("best log tail mismatch")
	}
	if !(task.BestExec > 0) || math.IsInf(task.BestExec, 1) {
		t.Fatal("best exec must be positive and finite")
	}
	_ = sim
}

func TestTaskWeightedBestExec(t *testing.T) {
	sg := workload.GEMM("g", 1, 128, 128, 128)
	sg.Weight = 7
	task, sim := newTestTask(t, sg, 3)
	if !math.IsInf(task.WeightedBestExec(), 1) {
		t.Fatal("unmeasured task must report +Inf")
	}
	task.MeasureBatch([]*schedule.Schedule{task.RandomSchedule(task.Sketches[0])})
	want := 7 * sim.Exec(task.Best)
	if got := task.WeightedBestExec(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted exec %g want %g", got, want)
	}
}

func TestTuneHonorsBudget(t *testing.T) {
	for name, e := range map[string]Engine{
		"random":     NewRandom(),
		"ansor":      NewAnsor(DefaultAnsorConfig()),
		"harl":       NewHARL(DefaultHARLConfig()),
		"flextensor": NewFlextensor(DefaultFlextensorConfig()),
	} {
		task, _ := newTestTask(t, workload.GEMM("g", 1, 256, 256, 256), 4)
		TuneSession(context.Background(), e, task, 48, 16, nil)
		if task.Trials < 48 || task.Trials > 48+16 {
			t.Fatalf("%s: trials %d for budget 48", name, task.Trials)
		}
		if task.Best == nil {
			t.Fatalf("%s: no best found", name)
		}
		if err := task.Best.Validate(); err != nil {
			t.Fatalf("%s: best schedule invalid: %v", name, err)
		}
	}
}

// The learning-based engines must decisively beat random sampling on a
// medium GEMM within a small budget (the core claim of the paper's design).
func TestGuidedSearchBeatsRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("search comparison is slow")
	}
	sg := workload.GEMM("g", 1, 512, 512, 512)
	run := func(mk func() Engine, seed uint64) float64 {
		task, sim := newTestTask(t, sg, seed)
		TuneSession(context.Background(), mk(), task, 160, 16, nil)
		return sim.Exec(task.Best)
	}
	// Average over two seeds to damp texture luck.
	randomBest := (run(func() Engine { return NewRandom() }, 10) + run(func() Engine { return NewRandom() }, 20)) / 2
	ansorBest := (run(func() Engine { return NewAnsor(DefaultAnsorConfig()) }, 10) + run(func() Engine { return NewAnsor(DefaultAnsorConfig()) }, 20)) / 2
	harlBest := (run(func() Engine { return NewHARL(DefaultHARLConfig()) }, 10) + run(func() Engine { return NewHARL(DefaultHARLConfig()) }, 20)) / 2
	if ansorBest >= randomBest {
		t.Fatalf("ansor %.4g not better than random %.4g", ansorBest, randomBest)
	}
	if harlBest >= randomBest {
		t.Fatalf("harl %.4g not better than random %.4g", harlBest, randomBest)
	}
}

// Regression test for the ε-greedy rounding bug: Ansor must not collapse to
// far-worse-than-random results on any seed (premature convergence).
func TestAnsorNoCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed run is slow")
	}
	sg := workload.GEMM("g", 1, 1024, 1024, 1024)
	for _, seed := range []uint64{7, 17} {
		task, sim := newTestTask(t, sg, seed)
		TuneSession(context.Background(), NewAnsor(DefaultAnsorConfig()), task, 300, 16, nil)
		if best := sim.Exec(task.Best); best > 2.0e-3 {
			t.Fatalf("seed %d: ansor best %.4g ms suggests premature convergence", seed, best*1e3)
		}
	}
}

func TestHARLAdaptiveStoppingTrackCounts(t *testing.T) {
	cfg := DefaultHARLConfig()
	h := NewHARL(cfg)
	task, _ := newTestTask(t, workload.GEMM("g", 1, 512, 512, 512), 5)
	h.RunRound(task, 8)
	// Every track must have recorded a critical-step position in [0,1].
	if len(task.TrackPositions) != cfg.Tracks {
		t.Fatalf("recorded %d track positions want %d", len(task.TrackPositions), cfg.Tracks)
	}
	for _, p := range task.TrackPositions {
		if p < 0 || p > 1 {
			t.Fatalf("track position %f out of [0,1]", p)
		}
	}
}

func TestHARLAgentIsTrained(t *testing.T) {
	h := NewHARL(DefaultHARLConfig())
	task, _ := newTestTask(t, workload.GEMM("g", 1, 256, 256, 256), 6)
	h.RunRound(task, 8)
	agent := h.Agent(task)
	if agent == nil {
		t.Fatal("no agent created")
	}
	if agent.Updates() == 0 {
		t.Fatal("agent never trained during the episode")
	}
}

// TestHARLSketchMABUsed pins that every round feeds its sketch back to the
// SW-UCB: the bandit pulls each arm once before any arm twice, so with one
// update per round the first len(Sketches) rounds measure every sketch once.
// Without updates every arm stays unexplored and each round's sketch is a
// uniform draw, which over four tasks repeats a sketch all but surely.
func TestHARLSketchMABUsed(t *testing.T) {
	for seed := uint64(7); seed < 11; seed++ {
		h := NewHARL(DefaultHARLConfig())
		task, _ := newTestTask(t, workload.GEMM("g", 1, 256, 256, 256), seed)
		if len(task.Sketches) < 2 {
			t.Fatalf("want several sketches, got %d", len(task.Sketches))
		}
		var round map[*sketch.Sketch]bool
		task.OnMeasure = func(s *schedule.Schedule, _ float64, _ int) { round[s.Sk] = true }
		seen := map[*sketch.Sketch]bool{}
		for i := range task.Sketches {
			round = map[*sketch.Sketch]bool{}
			h.RunRound(task, 8)
			for sk := range round {
				if len(round) != 1 || seen[sk] {
					t.Fatalf("seed %d round %d: measured %d sketches, one seen before: %v", seed, i, len(round), seen[sk])
				}
				seen[sk] = true
			}
		}
	}
}

func TestHARLFixedLengthMode(t *testing.T) {
	cfg := DefaultHARLConfig()
	cfg.AdaptiveStopping = false
	cfg.FixedLength = 10
	h := NewHARL(cfg)
	task, _ := newTestTask(t, workload.GEMM("g", 1, 256, 256, 256), 8)
	h.RunRound(task, 8)
	// Fixed-length tracks all have identical lengths; critical positions are
	// multiples of 1/10.
	for _, p := range task.TrackPositions {
		scaled := p * 10
		if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
			t.Fatalf("fixed-length position %f not on the 1/10 grid", p)
		}
	}
}

func TestFlextensorMeasuresEveryStep(t *testing.T) {
	f := NewFlextensor(DefaultFlextensorConfig())
	task, _ := newTestTask(t, workload.GEMM("g", 1, 128, 128, 128), 9)
	n := f.RunRound(task, 34)
	// 34/(16+1) = 2 tracks × 17 measurement attempts (init + 16 steps). The
	// walk revisits configurations (dummy/no-op actions), which dedup skips,
	// so the measured count is bounded by — not equal to — the attempts.
	if n < 8 || n > 34 {
		t.Fatalf("flextensor measured %d", n)
	}
	if len(task.TrackPositions) != 2 {
		t.Fatalf("flextensor tracks %d want 2", len(task.TrackPositions))
	}
}

func TestSubgraphWithMultipleStagesTunes(t *testing.T) {
	// Fused conv+relu and softmax subgraphs must tune without panics across
	// all engines (exercises fused sketches, rfactor, compute-at).
	for _, sg := range []*texpr.Subgraph{
		workload.Conv2DReLU("cr", 1, 1, 28, 28, 64, 64, 3, 1, 1),
		workload.Softmax("sm", 1536, 128),
		workload.Elementwise("ew", 1<<16, 4, 2),
		workload.DepthwiseConv2D("dw", 1, 28, 28, 96, 3, 1, 1),
	} {
		for name, e := range map[string]Engine{
			"harl":  NewHARL(DefaultHARLConfig()),
			"ansor": NewAnsor(DefaultAnsorConfig()),
		} {
			task, _ := newTestTask(t, sg, 11)
			TuneSession(context.Background(), e, task, 32, 16, nil)
			if task.Best == nil {
				t.Fatalf("%s on %s found nothing", name, sg.Name)
			}
		}
	}
}

func TestScoreChargesSearchCost(t *testing.T) {
	task, _ := newTestTask(t, workload.GEMM("g", 1, 128, 128, 128), 12)
	s := task.RandomSchedule(task.Sketches[0])
	one := []*schedule.Schedule{s}
	// Untrained: free, returns neutral 1.
	if task.ScoreBatch(one)[0] != 1 {
		t.Fatal("untrained score must be 1")
	}
	before := task.Meas.CostSec()
	var batch []*schedule.Schedule
	for i := 0; i < 16; i++ {
		batch = append(batch, task.RandomSchedule(task.Sketches[0]))
	}
	task.MeasureBatch(batch)
	mid := task.Meas.CostSec()
	task.ScoreBatch(one)
	if task.Meas.CostSec() <= mid {
		t.Fatal("trained score must charge cost-model query time")
	}
	_ = before
}

func TestMeasureBatchNaNAlignment(t *testing.T) {
	task, _ := newTestTask(t, workload.GEMM("g", 1, 128, 128, 128), 6)
	s1 := task.RandomSchedule(task.Sketches[0])
	s2 := task.RandomSchedule(task.Sketches[0])
	for s2.Key() == s1.Key() {
		s2 = task.RandomSchedule(task.Sketches[0])
	}
	// nil entries and within-batch duplicates must come back as NaN in the
	// slots they occupied, with real measurements aligned around them.
	out := task.MeasureBatch([]*schedule.Schedule{s1, nil, s1.Clone(), s2})
	if len(out) != 4 {
		t.Fatalf("output length %d", len(out))
	}
	if math.IsNaN(out[0]) || math.IsNaN(out[3]) {
		t.Fatal("fresh schedules must be measured")
	}
	if !math.IsNaN(out[1]) || !math.IsNaN(out[2]) {
		t.Fatalf("nil/duplicate slots must be NaN: %v", out)
	}
	if task.Trials != 2 {
		t.Fatalf("trials %d want 2", task.Trials)
	}
	// Duplicates across batches are skipped too.
	out2 := task.MeasureBatch([]*schedule.Schedule{s2.Clone(), s1})
	if !math.IsNaN(out2[0]) || !math.IsNaN(out2[1]) {
		t.Fatalf("cross-batch duplicates must be NaN: %v", out2)
	}
	if task.Trials != 2 {
		t.Fatalf("trials %d after duplicate-only batch", task.Trials)
	}
	// An all-duplicate batch must not refit or log anything new.
	if len(task.BestLog) != 2 || len(task.TrialCost) != 2 {
		t.Fatal("logs grew on duplicate-only batch")
	}
}
