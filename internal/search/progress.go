package search

import "context"

// Progress is one committed progress point of a tuning run, emitted at the
// barriers where state is worker-invariant: after each round of the operator
// loop (TuneSession) and at each wave barrier of the MultiTuner (one event
// per task advanced that wave, in wave-selection order). Every field is read from
// committed state only, so for a fixed seed and configuration the event
// sequence is byte-identical for every worker count — the same contract the
// tuning journal keeps.
type Progress struct {
	// Task is the index of the task the event describes (0 for operator runs).
	Task int
	// Wave is the 0-based wave (MultiTuner) or round (TuneSession) index at
	// whose barrier the event was committed.
	Wave int
	// Allocation is how many engine rounds the task has received so far.
	Allocation int
	// TaskTrials is the task-local cumulative charged-trial count and
	// TotalTrials the run-wide one (equal for operator runs). With adaptive
	// sampling, charged trials include backfilled candidates that were never
	// measured; TaskMeasured/TotalMeasured carry the real measurement counts.
	TaskTrials  int
	TotalTrials int
	// TaskMeasured is the task-local count of schedules actually measured,
	// and TotalMeasured the run-wide one. Without adaptive sampling they
	// equal TaskTrials/TotalTrials.
	TaskMeasured  int
	TotalMeasured int
	// BestExec is the task's best measured execution time so far (+Inf until
	// the task measures its first schedule).
	BestExec float64
	// RunBest is the run-level objective the driver optimizes: the best
	// execution time for an operator run, Σ w·g (the estimated end-to-end
	// network time) for a network run (+Inf until every task has measured).
	// Plateau detection reads this trajectory.
	RunBest float64
	// CostSec is the cumulative simulated search time at the barrier.
	CostSec float64
}

// TuneSession is Tune with cooperative cancellation and a progress callback.
// The context is checked at round boundaries: a cancelled session stops after
// its in-flight round commits — every measurement accounted (best logs,
// training set, OnMeasure journal callbacks), the task resumable — and
// TuneSession returns true. After every committed round, onProgress (when
// non-nil) receives one Progress event built from the task's committed state.
// The callback runs synchronously on the tuning goroutine, so anything it
// observes is consistent and anything it does (such as cancelling ctx) takes
// effect at the next round boundary.
func TuneSession(ctx context.Context, e Engine, t *Task, budgetTrials, measureK int, onProgress func(Progress)) bool {
	if t.Trials < budgetTrials {
		// Measure any transfer warm-start candidates before the first engine
		// round, so the donor's best schedule anchors the search immediately.
		t.FlushSeedCandidates()
	}
	round := 0
	for t.Trials < budgetTrials {
		if ctx.Err() != nil {
			return true
		}
		k := measureK
		if remaining := budgetTrials - t.Trials; k > remaining {
			k = remaining
		}
		if e.RunRound(t, k) == 0 {
			t.ExploreRandom(k)
		}
		if onProgress != nil {
			onProgress(Progress{
				Task:          0,
				Wave:          round,
				Allocation:    round + 1,
				TaskTrials:    t.Trials,
				TotalTrials:   t.Trials,
				TaskMeasured:  t.Measured,
				TotalMeasured: t.Measured,
				BestExec:      t.BestExec,
				RunBest:       t.BestExec,
				CostSec:       t.Meas.CostSec(),
			})
		}
		round++
	}
	return false
}
