package experiments

import (
	"io"
	"math"
	"strings"
	"testing"

	"harl/internal/hardware"
	"harl/internal/workload"
)

// tinyCfg keeps experiment tests fast while still exercising every code path.
func tinyCfg() Config {
	cfg := Scaled()
	cfg.OperatorBudget = 64
	cfg.MeasureK = 16
	cfg.ConfigsPerCategory = 1
	cfg.Batches = []int{1}
	cfg.NetworkBudgetScale = 0.004
	cfg.NetworkPlatforms = []string{"cpu"}
	return cfg
}

func TestRunPairMetrics(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	pr := runPair(sg, hardware.CPUXeon6226R(), 64, 16, 1, 1)
	if pr.AnsorExec <= 0 || pr.HARLExec <= 0 {
		t.Fatalf("degenerate pair %+v", pr)
	}
	if pr.AnsorTime <= 0 || pr.HARLTime <= 0 {
		t.Fatal("search times must be positive")
	}
}

func TestOperatorGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run is slow")
	}
	cfg := tinyCfg()
	var sb strings.Builder
	rows := operatorGrid(cfg, &sb)
	if len(rows) != len(workload.OperatorCategories()) {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		// Normalized metrics must be in (0, 1] with the max pinned at 1.
		if r.AnsorPerf <= 0 || r.AnsorPerf > 1 || r.HARLPerf <= 0 || r.HARLPerf > 1 {
			t.Fatalf("%s: perf out of range %+v", r.Category, r)
		}
		if math.Max(r.AnsorPerf, r.HARLPerf) != 1 {
			t.Fatalf("%s: no perf pinned at 1", r.Category)
		}
		if r.AnsorGF <= 0 || r.HARLGF <= 0 {
			t.Fatalf("%s: raw gflops missing", r.Category)
		}
	}
	if !strings.Contains(sb.String(), "GEMM-L") {
		t.Fatal("render missing categories")
	}
}

func TestAblationTrajectoryShape(t *testing.T) {
	cfg := tinyCfg()
	tr := ablationTrajectory(cfg, io.Discard)
	if len(tr.Trials) != 20 || len(tr.HARL) != 20 {
		t.Fatalf("trajectory points %d", len(tr.Trials))
	}
	for i := range tr.HARL {
		for _, v := range []float64{tr.Ansor[i], tr.HierRL[i], tr.HARL[i]} {
			if v <= 0 || v > 1+1e-9 {
				t.Fatalf("normalized perf %f out of range", v)
			}
		}
		if i > 0 && (tr.HARL[i] < tr.HARL[i-1] || tr.Ansor[i] < tr.Ansor[i-1]) {
			t.Fatal("best-so-far curves must be non-decreasing")
		}
	}
}

func TestCriticalStepsShape(t *testing.T) {
	cfg := tinyCfg()
	res := criticalSteps(cfg, io.Discard)
	if len(res.FixedBins) != 10 || len(res.AdaptiveBins) != 10 {
		t.Fatal("histograms must have 10 bins")
	}
	total := 0
	for _, c := range res.AdaptiveBins {
		total += c
	}
	if total == 0 {
		t.Fatal("no adaptive tracks recorded")
	}
}

func TestSensitivityNormalization(t *testing.T) {
	cfg := tinyCfg()
	rows := lambdaSensitivity(cfg, io.Discard)
	if len(rows) != 4 {
		t.Fatalf("lambda rows %d", len(rows))
	}
	maxPerf, maxTI := 0.0, 0.0
	for _, r := range rows {
		maxPerf = math.Max(maxPerf, r.Perf)
		maxTI = math.Max(maxTI, r.TimePerIter)
	}
	if maxPerf != 1 || maxTI != 1 {
		t.Fatalf("normalization broken: perf max %f time max %f", maxPerf, maxTI)
	}
	rows8 := rhoSensitivity(cfg, io.Discard)
	if len(rows8) != 3 || rows8[0].Value != 0.75 {
		t.Fatalf("rho rows %+v", rows8)
	}
}

func TestUniformImprovementObservation(t *testing.T) {
	res := uniformImprovement(tinyCfg(), io.Discard)
	// Paper Observation 1: most improvements are around 0.
	if math.Abs(res.Summary.P50) > 0.05 {
		t.Fatalf("median improvement %f, expected ≈0", res.Summary.P50)
	}
	if res.Summary.N != 4000 {
		t.Fatalf("moves %d want 200×20", res.Summary.N)
	}
}

func TestFixedLengthWasteObservation(t *testing.T) {
	cfg := tinyCfg()
	cfg.OperatorBudget = 256 // enough tracks for a stable histogram
	res := fixedLengthWaste(cfg, io.Discard)
	if len(res.Bins) != 10 {
		t.Fatal("bins")
	}
	// Paper Observation 2: most tracks peak early. At scaled budgets this is
	// noisy, so just require a meaningful share.
	if res.EarlyFraction < 0.2 {
		t.Fatalf("early fraction %.2f suspiciously low", res.EarlyFraction)
	}
}

func TestGreedyAllocationRows(t *testing.T) {
	if testing.Short() {
		t.Skip("network run is slow")
	}
	res := greedyAllocation(tinyCfg(), io.Discard)
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d want top-5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.LastOnePct > r.Total {
			t.Fatalf("%s: waste %d exceeds total %d", r.Subgraph, r.LastOnePct, r.Total)
		}
	}
	if res.FractionWasted < 0 || res.FractionWasted > 1 {
		t.Fatalf("fraction %f", res.FractionWasted)
	}
}

func TestTable1Render(t *testing.T) {
	var sb strings.Builder
	table1(&sb)
	out := sb.String()
	for _, want := range []string{"ansor", "flextensor", "harl", "SW-UCB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q", want)
		}
	}
}

func TestNetBudgetFloor(t *testing.T) {
	cfg := tinyCfg()
	cfg.NetworkBudgetScale = 1e-9
	net := workload.BERT(1)
	if b := netBudget(cfg, net); b < net.DistinctSubgraphs()*cfg.MeasureK*2 {
		t.Fatalf("budget %d below floor", b)
	}
}
