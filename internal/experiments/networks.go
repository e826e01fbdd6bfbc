package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"harl/internal/core"
	"harl/internal/hardware"
	"harl/internal/workload"
)

// netBudget returns the scaled trial budget of a network, floored so every
// subgraph gets at least a few rounds.
func netBudget(cfg Config, net *workload.Network) int {
	b := int(float64(workload.NetworkTrialBudget(net.Name)) * cfg.NetworkBudgetScale)
	minB := net.DistinctSubgraphs() * cfg.MeasureK * 2
	if b < minB {
		b = minB
	}
	return b
}

// runNetwork tunes a network with a named scheduler preset, one subgraph
// round at a time so the preset's allocation policy decides every round.
func runNetwork(cfg Config, netName string, batch int, platName, schedName string, seed uint64) *core.ParallelNetworkTuner {
	net, err := workload.NetworkByName(netName, batch)
	if err != nil {
		panic(err)
	}
	plat := hardware.ByName(platName)
	nt, err := core.NewSequentialNetworkTuner(net, plat, schedName, cfg.MeasureK, seed, cfg.EffectiveWorkers())
	if err != nil {
		panic(err)
	}
	nt.RunCtx(context.Background(), netBudget(cfg, net))
	for _, t := range nt.MT.Tasks {
		observeTask(t)
	}
	return nt
}

// ---------------------------------------------------------------------------
// Figures 8 & 9: end-to-end network performance and search time.
// ---------------------------------------------------------------------------

// NetworkRow is one bar group of Figures 8/9.
type NetworkRow struct {
	Network  string
	Platform string
	Batch    int
	// Normalized inference performance (max = 1), Figure 8.
	AnsorPerf, HARLPerf float64
	// Normalized search time (max = 1), Figure 9: time until each system
	// reached Ansor's final end-to-end estimate.
	AnsorTime, HARLTime float64
	Speedup             float64 // HARL measured perf / Ansor measured perf
	AnsorMs, HARLMs     float64
}

// networkGrid reproduces the Fig. 8/9 grid.
func networkGrid(cfg Config, w io.Writer) []NetworkRow {
	var rows []NetworkRow
	seed := cfg.Seed
	for _, batch := range cfg.Batches {
		for _, platName := range cfg.NetworkPlatforms {
			for _, netName := range []string{"BERT", "ResNet", "MobileNet"} {
				seed += 13
				ansor := runNetwork(cfg, netName, batch, platName, "ansor", seed)
				harl := runNetwork(cfg, netName, batch, platName, "harl", seed+5)

				aExec, hExec := ansor.MeasuredExec(), harl.MeasuredExec()
				row := NetworkRow{
					Network: netName, Platform: platName, Batch: batch,
					AnsorMs: aExec * 1e3, HARLMs: hExec * 1e3,
				}
				ap, hp := 1/aExec, 1/hExec
				maxP := math.Max(ap, hp)
				row.AnsorPerf, row.HARLPerf = ap/maxP, hp/maxP
				row.Speedup = hp / ap

				// Search time to reach Ansor's final estimated exec.
				target := ansor.EstimatedExec()
				aSnap, _ := ansor.SnapshotAtExec(target)
				hSnap, _ := harl.SnapshotAtExec(target)
				maxT := math.Max(aSnap.CostSec, hSnap.CostSec)
				if maxT > 0 {
					row.AnsorTime = aSnap.CostSec / maxT
					row.HARLTime = hSnap.CostSec / maxT
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "%-9s %-3s batch=%-3d perf: ansor=%.3f harl=%.3f (%.2fx, %.2f vs %.2f ms) | search time: ansor=%.3f harl=%.3f\n",
					netName, platName, batch, row.AnsorPerf, row.HARLPerf, row.Speedup, row.AnsorMs, row.HARLMs, row.AnsorTime, row.HARLTime)
			}
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table 4: BERT subgraph breakdown + MAB ablation.
// ---------------------------------------------------------------------------

// Table4Row is one subgraph row of Table 4.
type Table4Row struct {
	Subgraph     string
	Contribution float64 // share of HARL's estimated end-to-end time
	Speedup      float64 // Ansor subgraph exec / HARL subgraph exec
}

// Table4Result is the full Table 4: per-subgraph rows plus the aggregate
// estimated and measured speedups, with and without the subgraph MAB.
type Table4Result struct {
	Rows             []Table4Row
	EstimatedSpeedup float64
	MeasuredSpeedup  float64
	NoMABSpeedup     float64
}

// table4 reproduces the BERT-on-CPU breakdown ablation.
func table4(cfg Config, w io.Writer) Table4Result {
	ansor := runNetwork(cfg, "BERT", 1, "cpu", "ansor", cfg.Seed)
	harl := runNetwork(cfg, "BERT", 1, "cpu", "harl", cfg.Seed+5)
	noMAB := runNetwork(cfg, "BERT", 1, "cpu", "harl-nomab", cfg.Seed+9)

	aBr, hBr := ansor.Breakdown(), harl.Breakdown()
	var res Table4Result
	for i := range hBr {
		row := Table4Row{Subgraph: hBr[i].Name, Contribution: hBr[i].Contribution}
		if hBr[i].BestExec > 0 {
			row.Speedup = aBr[i].BestExec / hBr[i].BestExec
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Contribution > res.Rows[j].Contribution })
	res.EstimatedSpeedup = ansor.EstimatedExec() / harl.EstimatedExec()
	res.MeasuredSpeedup = ansor.MeasuredExec() / harl.MeasuredExec()
	res.NoMABSpeedup = ansor.MeasuredExec() / noMAB.MeasuredExec()
	fmt.Fprintf(w, "%-18s contribution  speedup\n", "subgraph")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-18s %5.1f%%        %.2fx\n", r.Subgraph, r.Contribution*100, r.Speedup)
	}
	fmt.Fprintf(w, "Estimated HARL (sum): %.2fx\n", res.EstimatedSpeedup)
	fmt.Fprintf(w, "Measured HARL:        %.2fx\n", res.MeasuredSpeedup)
	fmt.Fprintf(w, "Measured HARL (w/o subgraph MAB): %.2fx\n", res.NoMABSpeedup)
	return res
}

// ---------------------------------------------------------------------------
// Figure 10: subgraph trial allocations, MAB vs greedy.
// ---------------------------------------------------------------------------

// AllocationRow holds the trial allocation of one BERT subgraph under both
// policies, split at the point each system reached Ansor's best estimate.
type AllocationRow struct {
	Subgraph     string
	HARLAtAnsor  int // trials when HARL reached Ansor's best ("= Ansor")
	HARLTotal    int
	NoMABAtAnsor int
	NoMABTotal   int
}

// allocationAblation reproduces Fig. 10 for the five named BERT subgraphs.
func allocationAblation(cfg Config, w io.Writer) []AllocationRow {
	ansor := runNetwork(cfg, "BERT", 1, "cpu", "ansor", cfg.Seed)
	harl := runNetwork(cfg, "BERT", 1, "cpu", "harl", cfg.Seed+5)
	noMAB := runNetwork(cfg, "BERT", 1, "cpu", "harl-nomab", cfg.Seed+9)

	target := ansor.EstimatedExec()
	hSnap, _ := harl.SnapshotAtExec(target)
	nSnap, _ := noMAB.SnapshotAtExec(target)

	names := []string{"GEMM-I", "GEMM-II", "GEMM-III", "GEMM-IV", "Softmax"}
	var rows []AllocationRow
	for _, name := range names {
		hi, ni := harl.TaskIndexByName(name), noMAB.TaskIndexByName(name)
		row := AllocationRow{Subgraph: name}
		if hi >= 0 {
			row.HARLTotal = harl.MT.Tasks[hi].Trials
			if hi < len(hSnap.TaskTrials) {
				row.HARLAtAnsor = hSnap.TaskTrials[hi]
			}
		}
		if ni >= 0 {
			row.NoMABTotal = noMAB.MT.Tasks[ni].Trials
			if ni < len(nSnap.TaskTrials) {
				row.NoMABAtAnsor = nSnap.TaskTrials[ni]
			}
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "%-10s harl(=ansor) harl(total)  nomab(=ansor) nomab(total)\n", "subgraph")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d     %8d     %8d      %8d\n",
			r.Subgraph, r.HARLAtAnsor, r.HARLTotal, r.NoMABAtAnsor, r.NoMABTotal)
	}
	return rows
}
