package core

import (
	"context"
	"math"

	"harl/internal/hardware"
	"harl/internal/search"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
)

// commOverheadSec is the per-subgraph-execution framework/communication
// overhead separating the estimated from the measured end-to-end time
// (Table 4's "Estimated HARL (sum)" vs "Measured HARL" rows).
const commOverheadSec = 3e-6

// ParallelNetworkTuner is the tuner: it drives search.MultiTuner over a list
// of subgraph tasks, each wave picking a set of subgraphs with the preset's
// allocation policy and running one engine round on each selected task in
// parallel across a worker pool. Every task owns its measurer and RNG stream,
// so results depend only on the seed and configuration, never on the worker
// count.
//
// It comes in two wave shapes. NewParallelNetworkTuner is the production
// shape: every wave advances every subgraph, so the allocator only decides
// the final, budget-narrowed wave, and the SW-UCB presets allocate by the
// gradient estimate of Eq. 3 (round-robin for the presets that use it).
// NewSequentialNetworkTuner advances one subgraph per wave, which is where
// allocation decides everything: there the paper's subgraph MAB (§6.3) runs
// as MultiTuner's SW-UCB policy, and Table 4 / Fig. 10 measure it against
// the greedy allocator.
//
// An operator run is the degenerate top level of the hierarchy — a list of
// one subgraph (NewOperatorTuner) in the production shape. Its waves are its
// rounds, the pool fans out inside the round, and the subgraph bandit is never
// built: with one arm there is nothing to allocate, and the bandit's
// tie-breaking stream is split from the first task's RNG, so building it
// would move every draw the engine makes after it.
type ParallelNetworkTuner struct {
	MT *search.MultiTuner
	// SchedName is the scheduler preset name stamped into journal records.
	SchedName string
	// operator marks a NewOperatorTuner run, whose progress objective is the
	// task's measured best (see search.OperatorProgress).
	operator bool
}

// NewParallelNetworkTuner builds the full-width tuner for a scheduler preset
// name. roundTrials is the measured-candidate count per task round; workers
// sizes the pool (<= 0 selects runtime.NumCPU()).
func NewParallelNetworkTuner(net *workload.Network, plat *hardware.Platform, schedName string, roundTrials int, seed uint64, workers int) (*ParallelNetworkTuner, error) {
	return newPresetTuner(net.Subgraphs, plat, schedName, roundTrials, seed, workers, 0)
}

// NewSequentialNetworkTuner builds the one-subgraph-per-wave tuner of the
// paper's allocation studies (Figs. 1a/9/10, Table 4): each allocation
// decision sees the previous round's outcome, and the preset's own subgraph
// policy — SW-UCB, greedy gradient or round-robin — makes it. The pool fans
// out inside the selected task's round instead of across tasks.
func NewSequentialNetworkTuner(net *workload.Network, plat *hardware.Platform, schedName string, roundTrials int, seed uint64, workers int) (*ParallelNetworkTuner, error) {
	return newPresetTuner(net.Subgraphs, plat, schedName, roundTrials, seed, workers, 1)
}

// NewOperatorTuner builds the tuner for one subgraph under a scheduler preset
// name: the task, measurer and RNG streams are the first (only) entry of the
// task set a network of that one subgraph would get.
func NewOperatorTuner(sg *texpr.Subgraph, plat *hardware.Platform, schedName string, roundTrials int, seed uint64, workers int) (*ParallelNetworkTuner, error) {
	p, err := newPresetTuner([]*texpr.Subgraph{sg}, plat, schedName, roundTrials, seed, workers, 0)
	if err == nil {
		p.operator = true
	}
	return p, err
}

func newPresetTuner(graphs []*texpr.Subgraph, plat *hardware.Platform, schedName string, roundTrials int, seed uint64, workers, waveWidth int) (*ParallelNetworkTuner, error) {
	mk, policy, err := EngineFactory(schedName)
	if err != nil {
		return nil, err
	}
	return NewTuner(graphs, plat, schedName, mk, policy, roundTrials, seed, workers, waveWidth), nil
}

// NewTuner is the constructor under the preset ones, taking the engine factory
// and subgraph policy directly — how the sensitivity studies (Tables 7/8) run
// an engine configuration no preset names. waveWidth is 0 for the full-width
// shape, 1 for the sequential one; the SW-UCB bandit advances one task per
// wave, so policy AllocSWUCB runs it only in the sequential shape and
// allocates by the gradient estimate otherwise.
func NewTuner(graphs []*texpr.Subgraph, plat *hardware.Platform, schedName string, mk func() search.Engine, policy search.AllocPolicy, roundTrials int, seed uint64, workers, waveWidth int) *ParallelNetworkTuner {
	cfg := search.DefaultMultiTunerConfig()
	cfg.RoundTrials = roundTrials
	cfg.Workers = workers
	cfg.WaveWidth = waveWidth
	cfg.Policy = policy
	if policy == search.AllocSWUCB && waveWidth != 1 {
		cfg.Policy = search.AllocGradient
	}
	tasks := search.NewTaskSet(graphs, plat, seed)
	return &ParallelNetworkTuner{MT: search.NewMultiTuner(tasks, mk, cfg), SchedName: schedName}
}

// AttachJournal routes every committed measurement to the journal through the
// MultiTuner's wave-barrier fan-in: per-task records buffer during the wave
// and drain in selection order, so the journal is byte-identical for every
// worker count.
func (p *ParallelNetworkTuner) AttachJournal(jr *tunelog.Journal, seed uint64) {
	fps := make([]string, len(p.MT.Tasks))
	for i, t := range p.MT.Tasks {
		fps[i] = t.Graph.Fingerprint()
	}
	p.MT.SetRecorder(func(r search.TrialRecord) {
		t := p.MT.Tasks[r.Task]
		jr.Append(tunelog.NewRecordFP(fps[r.Task], t.Plat.Name, p.SchedName, r.Sched, r.Exec, r.Trial, seed))
	})
}

// SetProgress routes per-task progress events out of the MultiTuner's wave
// barriers — emitted in wave-selection order from committed state, so the
// event stream is byte-identical for every worker count (the journal's
// contract). Call before RunCtx.
func (p *ParallelNetworkTuner) SetProgress(fn func(search.Progress)) {
	if p.operator {
		fn = search.OperatorProgress(fn)
	}
	p.MT.OnProgress = fn
}

// WarmStart seeds every task from its best cached record and returns the
// number of tasks seeded.
func (p *ParallelNetworkTuner) WarmStart(db *tunelog.Database) int {
	n := 0
	for _, t := range p.MT.Tasks {
		if warmStartTask(t, db) {
			n++
		}
	}
	return n
}

// SeedCostModels applies the hooks' per-task stages (seedCostModel) to every
// task before RunCtx, returning the number of tasks whose cost
// model starts with offline knowledge. Seeding happens before the first wave
// on committed state, so the determinism contract (worker-count invariance)
// is untouched.
func (p *ParallelNetworkTuner) SeedCostModels(hooks TuneHooks) int {
	n := 0
	for _, t := range p.MT.Tasks {
		seedCostModel(t, hooks)
		if t.Pretrained {
			n++
		}
	}
	return n
}

// RunCtx tunes until the measurement budget is exhausted or the schedule
// spaces are, with cooperative cancellation at wave barriers (see
// search.MultiTuner.RunCtx); it returns true if the context cut the run
// short.
func (p *ParallelNetworkTuner) RunCtx(ctx context.Context, budgetTrials int) bool {
	return p.MT.RunCtx(ctx, budgetTrials)
}

// Trials returns the cumulative charged-trial count across all tasks.
func (p *ParallelNetworkTuner) Trials() int { return p.MT.Trials() }

// CostSec returns the total simulated search time across all tasks.
func (p *ParallelNetworkTuner) CostSec() float64 { return p.MT.CostSec() }

// EstimatedExec returns Σ w_n·g_n (+Inf until every subgraph measured).
func (p *ParallelNetworkTuner) EstimatedExec() float64 { return p.MT.EstimatedExec() }

// MeasuredExec returns the modeled measured end-to-end time: the estimate
// plus per-subgraph-execution communication overhead.
func (p *ParallelNetworkTuner) MeasuredExec() float64 {
	est := p.EstimatedExec()
	if math.IsInf(est, 1) {
		return est
	}
	executions := 0
	for _, t := range p.MT.Tasks {
		executions += t.Graph.Weight
	}
	return est + float64(executions)*commOverheadSec
}

// SnapshotAtExec returns the earliest wave snapshot whose estimated execution
// time reached the target, or the last snapshot if never reached.
func (p *ParallelNetworkTuner) SnapshotAtExec(target float64) (search.WaveSnapshot, bool) {
	hist := p.MT.History
	for _, s := range hist {
		if s.EstExec <= target {
			return s, true
		}
	}
	if len(hist) == 0 {
		return search.WaveSnapshot{}, false
	}
	return hist[len(hist)-1], false
}

// TaskIndexByName finds a task by its subgraph name, or -1.
func (p *ParallelNetworkTuner) TaskIndexByName(name string) int {
	for i, t := range p.MT.Tasks {
		if t.Graph.Name == name {
			return i
		}
	}
	return -1
}

// SubgraphBreakdown describes one row of Table 4.
type SubgraphBreakdown struct {
	Name         string
	Weight       int
	BestExec     float64 // noise-free time of one subgraph execution
	WeightedExec float64
	Contribution float64 // share of Σ w·g
}

// Breakdown returns the per-subgraph execution-time decomposition of the
// tuned network, sorted as stored (network inventory order).
func (p *ParallelNetworkTuner) Breakdown() []SubgraphBreakdown {
	total := p.EstimatedExec()
	out := make([]SubgraphBreakdown, len(p.MT.Tasks))
	for i, t := range p.MT.Tasks {
		b := SubgraphBreakdown{Name: t.Graph.Name, Weight: t.Graph.Weight}
		if t.Best != nil {
			b.BestExec = t.Meas.Sim.Exec(t.Best)
			b.WeightedExec = float64(t.Graph.Weight) * b.BestExec
			if !math.IsInf(total, 1) && total > 0 {
				b.Contribution = b.WeightedExec / total
			}
		}
		out[i] = b
	}
	return out
}
