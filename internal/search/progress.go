package search

import "context"

// Progress is one committed progress point of a tuning run. There is one
// emitter: MultiTuner.wave, at each wave barrier, one event per task advanced
// that wave, in wave-selection order (an operator run is a one-task set, so
// its waves are its rounds). Every field is read from committed state only, so
// for a fixed seed and configuration the event sequence is byte-identical for
// every worker count — the same contract the tuning journal keeps.
type Progress struct {
	// Task is the index of the task the event describes (0 for operator runs).
	Task int
	// Wave is the 0-based index of the wave at whose barrier the event was
	// committed.
	Wave int
	// Allocation is how many engine rounds the task has received so far.
	Allocation int
	// TaskTrials is the task-local cumulative trial count and TotalTrials the
	// run-wide one (equal for operator runs).
	TaskTrials  int
	TotalTrials int
	// BestExec is the task's best measured execution time so far (+Inf until
	// the task measures its first schedule).
	BestExec float64
	// RunBest is the run-level objective the driver optimizes: Σ w·g, the
	// estimated end-to-end time over the task set (+Inf until every task has
	// measured) — or, through OperatorProgress, an operator's measured best.
	// Plateau detection reads this trajectory.
	RunBest float64
	// CostSec is the cumulative simulated search time at the barrier.
	CostSec float64
}

// OperatorProgress adapts a progress callback for a run whose objective is one
// operator's measured best execution time rather than the noise-free Σ w·g a
// wave reports: RunBest becomes the task's BestExec. The operator entry points
// install it; the wave itself never asks how many tasks it drives.
func OperatorProgress(fn func(Progress)) func(Progress) {
	if fn == nil {
		return nil
	}
	return func(p Progress) {
		p.RunBest = p.BestExec
		fn(p)
	}
}

// TuneSession runs the engine on one task until the measurement budget is
// exhausted: the one-task case of MultiTuner.RunCtx, so the round loop, the
// exact-budget clamp, the stalled-space exit and the cancellation points are
// the network path's. The context is checked at round
// boundaries: a cancelled session stops after its in-flight round commits —
// every measurement accounted (best logs, training set, OnMeasure journal
// callbacks), the task resumable — and TuneSession returns true. After every
// committed round, onProgress (when non-nil) receives one Progress event built
// from the task's committed state, synchronously on the tuning goroutine. The
// task's own Pool and OnMeasure are left as the caller set them.
func TuneSession(ctx context.Context, e Engine, t *Task, budgetTrials, measureK int, onProgress func(Progress)) bool {
	mt := NewMultiTuner([]*Task{t}, func() Engine { return e }, MultiTunerConfig{RoundTrials: measureK, Workers: 1})
	mt.OnProgress = OperatorProgress(onProgress)
	return mt.RunCtx(ctx, budgetTrials)
}
