package experiments

import (
	"sync"

	"harl/internal/search"
)

// Observations aggregates the measurement accounting of every tuning run one
// experiment performs, for the BENCH summary: how many schedules were
// measured on (simulated) hardware, and the mean trial index at which runs
// locked in their final best. The accumulator is package-global because an
// experiment is a process-level unit — RunExperiment resets it, the run
// helpers feed it, and NewSummary takes it — but it is mutex-guarded so
// worker-pooled runs and concurrent tests stay race-free.
type Observations struct {
	// Runs counts the tuning tasks observed (network runs count one per
	// subgraph task).
	Runs int
	// Measured is the trial count summed over the observed tasks.
	Measured int
	// TrialsToBest is the mean trial index (1-based) at which the
	// observed tasks last improved their best — how deep into the budget the
	// final answer arrived.
	TrialsToBest int
}

var (
	obsMu  sync.Mutex
	obsCur Observations
	obsSum int // sum of per-task trials-to-best, averaged at Take time
)

// ResetObservations clears the accumulator; call at the start of an
// experiment so its summary reflects only its own runs.
func ResetObservations() {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsCur, obsSum = Observations{}, 0
}

// TakeObservations returns the totals accumulated since the last reset.
// Experiments that tune nothing (tab1's static matrix) report all zeros.
func TakeObservations() Observations {
	obsMu.Lock()
	defer obsMu.Unlock()
	o := obsCur
	if o.Runs > 0 {
		o.TrialsToBest = obsSum / o.Runs
	}
	return o
}

// observeTask folds one finished tuning task into the accumulator. Every
// run helper that drives a search (RunPair, runNetwork, the single-engine
// ablations) calls it once per task.
func observeTask(t *search.Task) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsCur.Runs++
	obsCur.Measured += t.Trials
	obsSum += trialsToBest(t.BestLog)
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
