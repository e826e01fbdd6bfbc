// Package core orchestrates the HARL auto-scheduler: it wires workloads,
// platforms, measurement, cost models and search engines into one tuner over
// a subgraph list — a network's subgraphs with subgraph-level selection
// (Section 6.3), or the list of one that is an operator-level job (Section
// 6.2). The package also defines the named scheduler presets compared
// throughout the paper:
//
//	harl             sketch/subgraph SW-UCB + PPO parameters + adaptive stopping
//	hierarchical-rl  HARL without the adaptive-stopping module (Fig. 7a)
//	harl-nomab       HARL with Ansor's greedy subgraph allocation (Table 4)
//	ansor            greedy gradient task scheduler + evolutionary search
//	flextensor       fixed-sketch fixed-length RL (Fig. 1c)
//	random           uniform random sampling
package core

import (
	"fmt"

	"harl/internal/pretrain"
	"harl/internal/search"
	"harl/internal/tunelog"
)

// EngineFactory returns a constructor for the preset's search engine plus
// its subgraph-selection policy: Ansor's greedy argmax over the Eq. 3
// gradient estimate (the "Greedy Allocation" row of Table 1), HARL's SW-UCB
// bandit over subgraphs, or round-robin. The factory builds a fresh engine
// per call: engine state is keyed per task and must never be shared across
// goroutines, so concurrent tuners (search.MultiTuner) instantiate one
// engine per task.
func EngineFactory(name string) (func() search.Engine, search.AllocPolicy, error) {
	switch name {
	case "harl":
		return func() search.Engine { return search.NewHARL(search.DefaultHARLConfig()) }, search.AllocSWUCB, nil
	case "hierarchical-rl":
		return func() search.Engine {
			cfg := search.DefaultHARLConfig()
			cfg.AdaptiveStopping = false
			return search.NewHARL(cfg)
		}, search.AllocSWUCB, nil
	case "harl-nomab":
		return func() search.Engine { return search.NewHARL(search.DefaultHARLConfig()) }, search.AllocGradient, nil
	case "ansor":
		return func() search.Engine { return search.NewAnsor(search.DefaultAnsorConfig()) }, search.AllocGradient, nil
	case "flextensor":
		return func() search.Engine { return search.NewFlextensor(search.DefaultFlextensorConfig()) }, search.AllocRoundRobin, nil
	case "random":
		return func() search.Engine { return search.NewRandom() }, search.AllocRoundRobin, nil
	}
	return nil, 0, fmt.Errorf("core: unknown scheduler %q", name)
}

// SchedulerNames lists every available preset.
func SchedulerNames() []string {
	return []string{"harl", "hierarchical-rl", "harl-nomab", "ansor", "flextensor", "random"}
}

// TuneHooks is what a session resolves its options into before it drives a
// tuner: the journal and warm-start database it hands to AttachJournal and
// WarmStart, and the per-task stages SeedCostModels applies. The zero value
// disables everything.
type TuneHooks struct {
	// Journal, when non-nil, receives one record per committed measurement,
	// in commit order (deterministic for every worker count).
	Journal *tunelog.Journal
	// Warm, when non-nil, seeds each task from its best cached record before
	// tuning starts, so an already-tuned workload converges immediately and
	// its best schedule is never re-measured.
	Warm *tunelog.Database
	// Pretrain, when non-nil, replays each task's matching journal records
	// into its cost model before search starts — model-only: unlike Warm it
	// seeds no schedules and skips no measurements, it just makes the reward
	// signal and the top-K ranking informed from round one.
	Pretrain *tunelog.Database
	// Evaluators, when non-nil, supplies each task's remote batch evaluator
	// (the measurement-fleet client; see internal/fleet.Pool). A nil return
	// for a given task means that task measures in-process. Remote
	// evaluation reproduces the in-process values bit-exactly, so the hook
	// changes where measurement runs, never what the journal records.
	Evaluators EvaluatorProvider
}

// EvaluatorProvider hands out per-task remote measurement clients. It is an
// interface (satisfied by fleet.Pool) so core does not depend on the fleet's
// HTTP machinery.
type EvaluatorProvider interface {
	// EvaluatorFor returns the task's remote evaluator, or nil (a true
	// interface nil) when the task should measure in-process.
	EvaluatorFor(t *search.Task) search.BatchEvaluator
}

// seedCostModel applies the hooks' per-task stages: the remote measurement
// evaluator if a fleet is attached, then the pretraining journal's replay.
func seedCostModel(t *search.Task, hooks TuneHooks) {
	if hooks.Evaluators != nil {
		t.Remote = hooks.Evaluators.EvaluatorFor(t)
	}
	if hooks.Pretrain != nil {
		pretrain.SeedTask(hooks.Pretrain, t)
	}
}

// warmStartTask seeds a task from the database's best record for its
// (workload fingerprint, target) key, reporting whether a usable record was
// found. Records whose steps no longer deserialize against the regenerated
// sketch list (a foreign or stale log) are ignored.
func warmStartTask(t *search.Task, db *tunelog.Database) bool {
	rec, ok := db.Best(t.Graph.Fingerprint(), t.Plat.Name)
	if !ok {
		return false
	}
	s, err := rec.Schedule(t.Sketches)
	if err != nil {
		return false
	}
	t.WarmStart(s, rec.ExecSec)
	return true
}
