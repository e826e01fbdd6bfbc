package experiments

import (
	"sync"

	"harl/internal/search"
)

// The measurement accounting of every tuning run one experiment performs,
// for its Summary: how many schedules were measured on (simulated) hardware,
// and the trial index at which each run locked in its final best. It is
// package-global because an experiment is a process-level unit — Run resets
// it, the run helpers feed it and Run takes it — but it is mutex-guarded so
// worker-pooled runs and concurrent tests stay race-free.
var (
	obsMu       sync.Mutex
	obsRuns     int // tuning tasks observed; a network run counts one per subgraph task
	obsMeasured int // trials summed over the observed tasks
	obsToBest   int // per-task trials-to-best summed over the observed tasks
)

// resetObservations clears the accumulator at the start of an experiment so
// its summary reflects only its own runs.
func resetObservations() {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsRuns, obsMeasured, obsToBest = 0, 0, 0
}

// takeObservations returns the trials measured since the last reset and the
// mean 1-based trial index at which the observed tasks last improved their
// best — how deep into the budget the final answers arrived. Experiments
// that tune nothing (tab1's static matrix) report zeros.
func takeObservations() (measured, toBest int) {
	obsMu.Lock()
	defer obsMu.Unlock()
	if obsRuns > 0 {
		toBest = obsToBest / obsRuns
	}
	return obsMeasured, toBest
}

// observeTask folds one finished tuning task into the accumulator. Every
// run helper that drives a search (runPair, runNetwork, the single-engine
// ablations) calls it once per task.
func observeTask(t *search.Task) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsRuns++
	obsMeasured += t.Trials
	obsToBest += trialsToBest(t.BestLog)
}

// trialsToBest is the 1-based index of the last improvement in a best-so-far
// log — the trial that produced the task's final answer.
func trialsToBest(best []float64) int {
	if len(best) == 0 {
		return 0
	}
	last := 0
	for i := 1; i < len(best); i++ {
		if best[i] < best[last] {
			last = i
		}
	}
	return last + 1
}
