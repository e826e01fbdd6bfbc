package harl

import (
	"context"
	"math"

	"harl/internal/search"
)

// ProgressEvent is one committed progress point of a tuning session,
// delivered through Options.OnProgress. Events are emitted at the barriers
// where state is worker-invariant — after each round of an operator session
// and at each wave barrier of a network session (one event per subgraph
// advanced that wave, in wave-selection order) — so for a fixed seed and
// configuration the event sequence is byte-identical for every
// Options.Workers value, exactly like the tuning journal. The JSON field
// names are the wire format of the harl-serve SSE stream
// (GET /v1/jobs/{id}/events).
type ProgressEvent struct {
	// Workload is the workload (operator run) or subgraph (network run) name.
	Workload string `json:"workload"`
	// Task is the subgraph index within a network run (0 for operator runs).
	Task int `json:"task"`
	// Wave is the 0-based wave/round index the event was committed at.
	Wave int `json:"wave"`
	// Allocation is how many engine rounds this task has received so far —
	// the adaptive allocator's per-task budget decision made observable.
	Allocation int `json:"allocation"`
	// TaskTrials is the task-local cumulative trial count; TotalTrials the
	// run-wide one (equal for operator runs).
	TaskTrials  int `json:"task_trials"`
	TotalTrials int `json:"total_trials"`
	// BestExecSeconds is the task's best measured execution time so far (0
	// until the task measures its first schedule).
	BestExecSeconds float64 `json:"best_exec_seconds"`
	// RunBestSeconds is the run-level objective: the best execution time for
	// an operator run, the estimated end-to-end time Σ w·g for a network run
	// (0 until every subgraph has measured). Plateau detection watches this
	// trajectory.
	RunBestSeconds float64 `json:"run_best_seconds"`
	// SearchSeconds is the cumulative simulated search time.
	SearchSeconds float64 `json:"search_seconds"`
}

// Plateau configures adaptive early stopping on the observed convergence
// trajectory: when the run objective (ProgressEvent.RunBestSeconds) improves
// by a relative fraction of MinImprovement or less across the last Window
// committed waves, the session stops through the same
// checkpoint-on-cancel path a user cancellation takes — the in-flight round
// commits, the record log and model checkpoint are written, the partial best
// is published to any configured Registry, and the result comes back with
// PlateauStopped set. Detection reads only committed, worker-invariant
// state, so whether and where a run plateau-stops is identical for every
// worker count.
type Plateau struct {
	// Window is the number of recent waves/rounds the improvement is
	// measured over; 0 disables plateau detection. A network wave
	// emits one progress event per advanced subgraph, but the trajectory is
	// sampled once per wave — the window counts allocation decisions, not
	// events.
	Window int
	// MinImprovement is the relative improvement (0.01 = 1%) the trajectory
	// must exceed over Window waves to keep searching. The zero value stops
	// only a trajectory that did not improve at all.
	MinImprovement float64
}

func (p Plateau) enabled() bool { return p.Window > 0 }

// plateauDetector folds the run-objective trajectory and decides when it has
// flatlined. The trajectory is sampled once per wave — a concurrent network
// wave emits one event per advanced subgraph, all carrying the same
// post-wave objective, and counting each would fill the window with zero
// "improvement" inside a single wave. Events whose objective is not yet
// meaningful (no measurement, or a network run before every subgraph
// measured) are skipped rather than counted as stagnation.
type plateauDetector struct {
	p        Plateau
	hist     []float64
	seenWave bool
	lastWave int
}

func (d *plateauDetector) observe(wave int, runBest float64) bool {
	if !d.p.enabled() || runBest <= 0 || math.IsInf(runBest, 1) {
		return false
	}
	if d.seenWave && wave == d.lastWave {
		return false
	}
	d.seenWave, d.lastWave = true, wave
	d.hist = append(d.hist, runBest)
	if len(d.hist) <= d.p.Window {
		return false
	}
	old := d.hist[len(d.hist)-1-d.p.Window]
	return (old-runBest)/old <= d.p.MinImprovement
}

// finiteOrZero maps the engine's +Inf "nothing measured yet" sentinels to 0
// so every ProgressEvent is JSON-encodable.
func finiteOrZero(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// publicProgress renders an internal progress point as the public event.
func publicProgress(names []string, p search.Progress) ProgressEvent {
	name := ""
	if p.Task >= 0 && p.Task < len(names) {
		name = names[p.Task]
	}
	return ProgressEvent{
		Workload:        name,
		Task:            p.Task,
		Wave:            p.Wave,
		Allocation:      p.Allocation,
		TaskTrials:      p.TaskTrials,
		TotalTrials:     p.TotalTrials,
		BestExecSeconds: finiteOrZero(p.BestExec),
		RunBestSeconds:  finiteOrZero(p.RunBest),
		SearchSeconds:   p.CostSec,
	}
}

// progressSession resolves Options.OnProgress and Options.Plateau into the
// session wiring: the (possibly plateau-cancellable) session context, the
// core-level progress hook (nil when neither option is set, so sessions
// without observers pay nothing), a predicate reporting whether the plateau
// policy — and not the caller's context or an exhausted budget — stopped the
// run, and a cleanup releasing the derived context. The predicate takes the
// session's cancelled report: a detector that fired on the final budgeted
// wave stopped nothing (budget-exhausted is checked before the context at
// every barrier), so the run completed and must not claim an early stop.
// Both the hook and the predicate run on the tuning goroutine / after the
// session returns respectively, so no locking is needed.
func (o Options) progressSession(ctx context.Context, names []string) (sessCtx context.Context, hook func(search.Progress), plateaued func(sessionCancelled bool) bool, cleanup func()) {
	cleanup = func() {}
	if o.OnProgress == nil && !o.Plateau.enabled() {
		return ctx, nil, func(bool) bool { return false }, cleanup
	}
	sessCtx = ctx
	var cancel context.CancelFunc
	if o.Plateau.enabled() {
		sessCtx, cancel = context.WithCancel(ctx)
		cleanup = cancel
	}
	det := &plateauDetector{p: o.Plateau}
	fired := false
	hook = func(p search.Progress) {
		if o.OnProgress != nil {
			o.OnProgress(publicProgress(names, p))
		}
		if cancel != nil && !fired && det.observe(p.Wave, p.RunBest) {
			fired = true
			cancel()
		}
	}
	plateaued = func(sessionCancelled bool) bool { return fired && sessionCancelled && ctx.Err() == nil }
	return sessCtx, hook, plateaued, cleanup
}
