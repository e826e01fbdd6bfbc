// Package core orchestrates the HARL auto-scheduler: it wires workloads,
// platforms, measurement, cost models and search engines into one tuner over
// a subgraph list — a network's subgraphs with subgraph-level selection
// (Section 6.3), or the list of one that is an operator-level job (Section
// 6.2). The caller starts each task up before the first wave (the harl
// session resolves the task set against its registry and, unless every task
// hit and the tuner never runs, attaches a fleet evaluator, then runs
// search.Task.Pretrain and search.Task.WarmStartFrom); core only drives the
// tuner and journals what it measures. The package also defines the named
// scheduler presets compared throughout the paper:
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

	"harl/internal/search"
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
