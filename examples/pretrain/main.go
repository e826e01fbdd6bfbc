// Pretrain: starting from a trained cost model. A first tuning run journals
// its measurements; a later run replays that journal into its cost model
// before the first round (Options.PretrainFrom, harl-tune -pretrain) and
// races a cold-started run of the same seed to the journal's best program.
//
// A copy of the journal this example produces (same workload, scheduler
// "harl", 96 trials, seed 7) is committed as examples/pretrain/gemm-cpu.jsonl
// and exercised by the repository's tests and CI.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"harl"
)

// trialsToReach returns the 1-based trial at which the best-so-far log first
// reached the target, or -1.
func trialsToReach(bestLog []float64, target float64) int {
	for i, e := range bestLog {
		if e <= target {
			return i + 1
		}
	}
	return -1
}

func main() {
	dir, err := os.MkdirTemp("", "harl-pretrain")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "gemm.jsonl")

	w := harl.GEMM(256, 256, 256, 1)

	// Run 1: a normal tuning run, journaled.
	res1, err := harl.TuneOperator(w, harl.CPU(), harl.Options{
		Scheduler: "harl",
		Trials:    96,
		Seed:      7,
		RecordLog: logPath,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 1 (journaled):  %.4f ms after %d trials\n", res1.ExecSeconds*1e3, res1.Trials)

	// The target to race for: the journal's best measured execution time.
	best, ok, err := harl.BestRecord(logPath, w, harl.CPU())
	if err != nil || !ok {
		log.Fatal("no best record:", err)
	}

	// Run 2a: cold start with a fresh seed.
	cold, err := harl.TuneOperator(w, harl.CPU(), harl.Options{
		Scheduler: "harl", Trials: 160, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Run 2b: same seed, but the cost model learns the journal before the
	// first round. Features are regenerated deterministically from the
	// serialized schedule steps, so the same journal always trains the same
	// model.
	pre, err := harl.TuneOperator(w, harl.CPU(), harl.Options{
		Scheduler: "harl", Trials: 160, Seed: 1, PretrainFrom: logPath,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("journal best:       %.4f ms\n", best.ExecSeconds*1e3)
	fmt.Printf("cold run:           reached it at trial %d (best %.4f ms, pretrained=%v)\n",
		trialsToReach(cold.BestLog, best.ExecSeconds), cold.ExecSeconds*1e3, cold.Pretrained)
	fmt.Printf("pretrained run:     reached it at trial %d (best %.4f ms, pretrained=%v, %d samples, %d refits)\n",
		trialsToReach(pre.BestLog, best.ExecSeconds), pre.ExecSeconds*1e3, pre.Pretrained,
		pre.CostModelSamples, pre.CostModelRefits)
}
