package core

import (
	"context"
	"math"
	"testing"

	"harl/internal/hardware"
	"harl/internal/search"
	"harl/internal/workload"
)

func TestSchedulerPresets(t *testing.T) {
	for _, name := range SchedulerNames() {
		mk, _, err := EngineFactory(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mk() == nil {
			t.Fatalf("%s: the factory built no engine", name)
		}
	}
	for _, name := range []string{"nope", "autotvm"} {
		if _, _, err := EngineFactory(name); err == nil {
			t.Fatalf("unknown scheduler %q must error", name)
		}
		if _, err := NewOperatorTuner(workload.GEMM("g", 1, 64, 64, 64), hardware.CPUXeon6226R(), name, 16, 1, 1); err == nil {
			t.Fatalf("a tuner for unknown scheduler %q must error", name)
		}
	}
}

func TestSchedulerPolicies(t *testing.T) {
	// The paper's Table 1: Ansor allocates greedily, HARL uses the MAB;
	// the no-MAB ablation is HARL's engine with the greedy policy.
	for name, want := range map[string]search.AllocPolicy{"ansor": search.AllocGradient, "harl": search.AllocSWUCB, "harl-nomab": search.AllocGradient} {
		if _, got, err := EngineFactory(name); err != nil || got != want {
			t.Fatalf("%s policy %v (err %v), want %v", name, got, err, want)
		}
	}
}

func TestTuneOperatorBasics(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	tn, err := NewOperatorTuner(sg, hardware.CPUXeon6226R(), "random", 16, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tn.RunCtx(context.Background(), 48)
	if tn.Trials() != 48 || len(tn.MT.History) != 3 {
		t.Fatalf("%d trials in %d waves, want 48 in 3", tn.Trials(), len(tn.MT.History))
	}
	if b := tn.Breakdown(); len(b) != 1 || b[0].BestExec <= 0 || b[0].BestExec != tn.EstimatedExec() {
		t.Fatalf("degenerate result %+v (estimate %g)", b, tn.EstimatedExec())
	}
	if tn.CostSec() <= 0 {
		t.Fatal("no search time accounted")
	}
}

func TestTuneOperatorReproducible(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	plat := hardware.CPUXeon6226R()
	run := func(seed uint64) *search.Task {
		return tuneOperator(t, sg, plat, "ansor", 48, seed, 1, nil, nil).Task
	}
	a, b, c := run(42), run(42), run(43)
	if a.BestExec != b.BestExec || a.Meas.CostSec() != b.Meas.CostSec() {
		t.Fatalf("same seed diverged: %.6g vs %.6g", a.BestExec, b.BestExec)
	}
	if a.BestExec == c.BestExec && a.Meas.CostSec() == c.Meas.CostSec() {
		t.Fatal("different seeds produced identical runs")
	}
}

// newBERTTuner runs the one-subgraph-per-wave tuner, where the preset's
// allocation policy decides every round.
func newBERTTuner(t *testing.T, sched string, budget int) *ParallelNetworkTuner {
	t.Helper()
	nt, err := NewSequentialNetworkTuner(workload.BERT(1), hardware.CPUXeon6226R(), sched, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	nt.RunCtx(context.Background(), budget)
	return nt
}

func TestNetworkTunerRunsBudget(t *testing.T) {
	nt := newBERTTuner(t, "ansor", 400)
	// Per-task rounds are clamped at the barrier, so the budget lands exactly.
	if nt.Trials() != 400 {
		t.Fatalf("trials %d", nt.Trials())
	}
	est := nt.EstimatedExec()
	if math.IsInf(est, 1) || est <= 0 {
		t.Fatalf("estimated exec %g", est)
	}
	if nt.MeasuredExec() <= est {
		t.Fatal("measured must add communication overhead")
	}
	if len(nt.MT.History) == 0 {
		t.Fatal("no snapshots recorded")
	}
}

func TestNetworkTunerVisitsEveryTask(t *testing.T) {
	nt := newBERTTuner(t, "harl", 400)
	for i, task := range nt.MT.Tasks {
		if task.Trials == 0 {
			t.Fatalf("task %d (%s) never tuned", i, task.Graph.Name)
		}
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	nt := newBERTTuner(t, "ansor", 400)
	total := 0.0
	for _, b := range nt.Breakdown() {
		if b.Contribution < 0 {
			t.Fatalf("%s negative contribution", b.Name)
		}
		total += b.Contribution
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("contributions sum to %f", total)
	}
}

func TestSnapshotsMonotone(t *testing.T) {
	nt := newBERTTuner(t, "ansor", 400)
	prevTrials, prevCost := 0, 0.0
	bestEst := math.Inf(1)
	for _, s := range nt.MT.History {
		if s.Trials < prevTrials || s.CostSec < prevCost {
			t.Fatal("snapshots must be monotone in trials and cost")
		}
		prevTrials, prevCost = s.Trials, s.CostSec
		if !math.IsInf(s.EstExec, 1) && s.EstExec < bestEst {
			bestEst = s.EstExec
		}
	}
	// The final estimate equals the best seen (best-so-far semantics via
	// per-task bests).
	if got := nt.MT.History[len(nt.MT.History)-1].EstExec; got > bestEst+1e-12 {
		t.Fatalf("final estimate %g worse than best %g", got, bestEst)
	}
}

func TestSnapshotAtExec(t *testing.T) {
	nt := newBERTTuner(t, "ansor", 400)
	final := nt.EstimatedExec()
	snap, ok := nt.SnapshotAtExec(final * 1.5)
	if !ok {
		t.Fatal("relaxed target must be reached")
	}
	if snap.EstExec > final*1.5 {
		t.Fatal("snapshot does not satisfy target")
	}
	if _, ok := nt.SnapshotAtExec(final / 100); ok {
		t.Fatal("impossible target reported reached")
	}
}

func TestGreedyConcentratesOnHeavyTasks(t *testing.T) {
	nt := newBERTTuner(t, "ansor", 600)
	trials := nt.MT.TaskTrials()
	// The four big GEMMs dominate BERT's time; greedy must allocate more to
	// them than to the cheap elementwise subgraphs.
	heavy := trials[nt.TaskIndexByName("GEMM-I")] + trials[nt.TaskIndexByName("GEMM-III")] +
		trials[nt.TaskIndexByName("GEMM-IV")]
	light := trials[nt.TaskIndexByName("Element-wise-I")] + trials[nt.TaskIndexByName("Element-wise-II")] +
		trials[nt.TaskIndexByName("GEMM+Tanh")]
	if heavy <= light {
		t.Fatalf("greedy allocation heavy=%d light=%d", heavy, light)
	}
}

func TestTaskIndexByName(t *testing.T) {
	nt := newBERTTuner(t, "random", 0)
	if nt.TaskIndexByName("Softmax") < 0 {
		t.Fatal("Softmax not found")
	}
	if nt.TaskIndexByName("nope") != -1 {
		t.Fatal("unknown name must be -1")
	}
}
