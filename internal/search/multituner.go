package search

import (
	"context"
	"math"

	"harl/internal/bandit"
	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/texpr"
	"harl/internal/xrand"
)

// AllocPolicy selects how MultiTuner spreads the trial budget across tasks.
type AllocPolicy int

const (
	// AllocGradient picks each wave's tasks by the Eq. 3 gradient estimate
	// (Ansor's task-scheduler benefit score), so subgraphs that still
	// promise end-to-end gains receive more rounds.
	AllocGradient AllocPolicy = iota
	// AllocRoundRobin cycles through tasks in index order.
	AllocRoundRobin
	// AllocSWUCB is the paper's subgraph bandit (§6.3, Eq. 1/3/4): a
	// sliding-window UCB over the tasks whose arm reward is the realized
	// gradient estimate, normalized by the current end-to-end estimate. A
	// bandit pulls one arm and observes its reward before the next pull, so
	// this policy always advances one task per wave (WaveWidth 1).
	AllocSWUCB
)

// The subgraph bandit's exploration constant and window, and Eq. 3's α and β
// (paper Table 5).
const (
	subgraphC      = 0.25
	subgraphWindow = 256
	gradAlpha      = 0.2
	gradBeta       = 2.0
)

// MultiTunerConfig parameterizes the concurrent multi-task scheduler.
type MultiTunerConfig struct {
	// RoundTrials is the number of measured candidates per engine round.
	RoundTrials int
	// Workers is the worker-pool width for concurrent task rounds; <= 0
	// selects runtime.NumCPU(). Worker count never changes results, only
	// wall-clock time (see the determinism note on MultiTuner).
	Workers int
	// WaveWidth is how many tasks advance concurrently per wave; 0 (or more
	// than there are tasks) means every task. It is part of the schedule
	// (unlike Workers): changing it changes which task states feed the next
	// allocation decision.
	WaveWidth int
	// Policy selects the budget allocator.
	Policy AllocPolicy
}

// DefaultMultiTunerConfig is the paper's allocator: 16 trials per round,
// tasks picked by the Eq. 3 gradient estimate.
func DefaultMultiTunerConfig() MultiTunerConfig {
	return MultiTunerConfig{
		RoundTrials: 16,
		Policy:      AllocGradient,
	}
}

// WaveSnapshot records the tuner state after one completed wave, for
// allocation and time-to-target analyses (Figures 1a, 9, 10).
type WaveSnapshot struct {
	Wave       int
	Tasks      []int // task indices advanced this wave
	Trials     int   // cumulative trials after the wave
	TaskTrials []int // per-task cumulative trials after the wave
	CostSec    float64
	// EstExec is Σ w_n·g_n after the wave (+Inf until every task measured).
	EstExec float64
}

// MultiTuner is the tuning driver — its wave is the only caller of
// Engine.RunRound. It tunes a set of tasks (the subgraphs of a network, or the
// one subgraph of an operator run) concurrently: each wave it selects a set of
// tasks with the allocation policy and runs one engine round on every selected
// task in parallel across a worker pool.
//
// Determinism contract: tasks are fully independent — each owns its engine
// instance, RNG stream, cost model and measurer — and allocation decisions
// happen at wave barriers from committed state only. The outcome therefore
// depends on the seed and the configuration but NOT on the worker count or
// on goroutine scheduling: workers=1 and workers=N produce byte-identical
// best schedules, logs and search-time accounting.
type MultiTuner struct {
	Tasks   []*Task
	Engines []Engine
	Cfg     MultiTunerConfig

	pool        *ParallelPool
	mab         *bandit.SWUCB // AllocSWUCB only
	allocations []int
	gHist       [][]float64 // per task: weighted best exec after each round
	rrNext      int
	History     []WaveSnapshot

	record  func(TrialRecord)
	pending [][]TrialRecord // per task: records buffered until the wave barrier

	// OnProgress, when set, receives one Progress event per task advanced in
	// each wave, emitted at the wave barrier in wave-selection order from
	// committed state only — the same deterministic fan-in point the recorder
	// uses, so the event sequence is byte-identical for every worker count.
	// Set it before RunCtx.
	OnProgress func(Progress)
}

// TrialRecord is one committed measurement of a multi-task run, tagged with
// the index of the task that measured it.
type TrialRecord struct {
	Task  int
	Sched *schedule.Schedule
	Exec  float64
	// Trial is the task-local 1-based trial index.
	Trial int
}

// NewTaskSet builds one task per subgraph on the platform, each with its own
// measurer and RNG stream (derived from seed in index order) so concurrent
// rounds never contend. The simulator is shared — it is stateless.
func NewTaskSet(graphs []*texpr.Subgraph, plat *hardware.Platform, seed uint64) []*Task {
	rng := xrand.New(seed)
	sim := hardware.NewSimulator(plat)
	tasks := make([]*Task, len(graphs))
	for i, g := range graphs {
		meas := hardware.NewMeasurer(sim, rng.Split())
		tasks[i] = NewTask(g, plat, meas, rng.Split())
	}
	return tasks
}

// NewMultiTuner builds the scheduler; mkEngine constructs a fresh engine per
// task (engine state is per-task and must not be shared across goroutines).
func NewMultiTuner(tasks []*Task, mkEngine func() Engine, cfg MultiTunerConfig) *MultiTuner {
	if cfg.RoundTrials <= 0 {
		cfg.RoundTrials = DefaultMultiTunerConfig().RoundTrials
	}
	mt := &MultiTuner{
		Tasks:       tasks,
		Cfg:         cfg,
		pool:        NewParallelPool(cfg.Workers),
		allocations: make([]int, len(tasks)),
		gHist:       make([][]float64, len(tasks)),
	}
	for range tasks {
		mt.Engines = append(mt.Engines, mkEngine())
	}
	if cfg.WaveWidth <= 0 || cfg.WaveWidth > len(tasks) {
		mt.Cfg.WaveWidth = len(tasks)
	}
	if cfg.Policy == AllocSWUCB {
		mt.Cfg.WaveWidth = 1
		// Ties break on a stream split from the first task's RNG, so the
		// allocation stays a pure function of the task set's seed.
		mt.mab = bandit.NewSWUCB(len(tasks), subgraphC, subgraphWindow, tasks[0].RNG.Split())
	}
	if mt.Cfg.WaveWidth == 1 {
		// One task per wave — by configuration, or because the set holds one
		// task — leaves the pool idle across tasks; lend it to the tasks for
		// intra-round parallelism instead (results are identical either way,
		// see Task.Pool). A pool the caller already attached stays.
		for _, t := range tasks {
			if t.Pool == nil {
				t.Pool = mt.pool
			}
		}
	}
	return mt
}

// SetRecorder installs fn to receive every committed measurement of every
// task. Within a task, records arrive in commit order (MeasureBatch commits
// serially); across tasks they are fanned in at wave barriers in wave
// selection order, so the full record sequence is deterministic — journals
// written through fn are byte-identical for every worker count. It replaces
// each task's OnMeasure callback and must be called before RunCtx.
func (mt *MultiTuner) SetRecorder(fn func(TrialRecord)) {
	mt.record = fn
	mt.pending = make([][]TrialRecord, len(mt.Tasks))
	for i, t := range mt.Tasks {
		i, t := i, t
		t.OnMeasure = func(s *schedule.Schedule, exec float64, trial int) {
			mt.pending[i] = append(mt.pending[i], TrialRecord{Task: i, Sched: s, Exec: exec, Trial: trial})
		}
	}
}

// drainRecords flushes the buffered records of the selected tasks to the
// recorder, in selection order (the deterministic fan-in point).
func (mt *MultiTuner) drainRecords(sel []int) {
	if mt.record == nil {
		return
	}
	for _, a := range sel {
		for _, r := range mt.pending[a] {
			mt.record(r)
		}
		mt.pending[a] = mt.pending[a][:0]
	}
}

// Trials returns the cumulative trial count across all tasks — the budget
// spent.
func (mt *MultiTuner) Trials() int {
	total := 0
	for _, t := range mt.Tasks {
		total += t.Trials
	}
	return total
}

// CostSec returns the total simulated search time, summing each distinct
// measurer once in task order (tasks may share a measurer).
func (mt *MultiTuner) CostSec() float64 {
	total := 0.0
	seen := make(map[*hardware.Measurer]bool)
	for _, t := range mt.Tasks {
		if seen[t.Meas] {
			continue
		}
		seen[t.Meas] = true
		total += t.Meas.CostSec()
	}
	return total
}

// TaskTrials returns a copy of the per-task trial counts.
func (mt *MultiTuner) TaskTrials() []int {
	out := make([]int, len(mt.Tasks))
	for i, t := range mt.Tasks {
		out[i] = t.Trials
	}
	return out
}

// EstimatedExec returns Σ w_n·g_n over the tasks (+Inf until every task has
// a measured schedule).
func (mt *MultiTuner) EstimatedExec() float64 {
	total := 0.0
	for _, t := range mt.Tasks {
		g := t.WeightedBestExec()
		if math.IsInf(g, 1) {
			return math.Inf(1)
		}
		total += g
	}
	return total
}

// gradientEstimate computes the Eq. 3 benefit score of giving task a the
// next round (larger = more expected end-to-end gain). The first term is the
// recent measured improvement slope of the task's weighted execution time
// (gHist holds that value after each of the task's rounds); the second is
// Ansor's optimistic potential: the task can either keep its
// historical halving pace (g/t) or approach β× the best throughput achieved
// by similar subgraphs (same main-stage kind). It reads committed task state
// only: the gradient allocator ranks tasks by it and the SW-UCB allocator
// uses it as the arm reward.
func (mt *MultiTuner) gradientEstimate(a int) float64 {
	tasks, hist := mt.Tasks, mt.gHist[a]
	t := tasks[a]
	g := t.WeightedBestExec()
	if math.IsInf(g, 1) {
		return math.Inf(1) // unmeasured task: always worth one round
	}
	slope := 0.0
	if n := len(hist); n >= 2 {
		slope = hist[n-2] - hist[n-1] // positive when improving
	}
	ta := float64(mt.allocations[a])
	if ta < 1 {
		ta = 1
	}
	maxP := 0.0
	mainKind := t.Graph.Stages[t.Graph.MainStage()].Kind
	for b, o := range tasks {
		if b == a || o.Best == nil {
			continue
		}
		if o.Graph.Stages[o.Graph.MainStage()].Kind != mainKind {
			continue
		}
		if p := o.Graph.FLOPs() / o.Meas.Sim.Exec(o.Best); p > maxP {
			maxP = p
		}
	}
	potential := g / ta
	if maxP > 0 {
		// min(-g/t, β·B/maxP - g) in the paper's negative orientation is
		// max(g/t, g - β·B/maxP) as a positive benefit.
		if bound := g - gradBeta*float64(t.Graph.Weight)*t.Graph.FLOPs()/maxP; bound > potential {
			potential = bound
		}
	}
	return gradAlpha*slope + (1-gradAlpha)*potential
}

// selectWave picks the tasks to advance this wave: width tasks (1..n), by
// round-robin order or by descending gradient estimate with index
// tie-breaking, or the bandit's one arm (all fully deterministic).
func (mt *MultiTuner) selectWave(width int) []int {
	if mt.Cfg.Policy == AllocSWUCB {
		// Every task must be visited once before the rewards make sense.
		for a, rounds := range mt.allocations {
			if rounds == 0 {
				return []int{a}
			}
		}
		return []int{mt.mab.Select()}
	}
	n := len(mt.Tasks)
	if mt.Cfg.Policy == AllocRoundRobin {
		sel := make([]int, 0, width)
		for i := 0; i < width; i++ {
			sel = append(sel, (mt.rrNext+i)%n)
		}
		mt.rrNext = (mt.rrNext + width) % n
		return sel
	}
	type scored struct {
		idx int
		v   float64
	}
	est := make([]scored, n)
	for a := range mt.Tasks {
		est[a] = scored{a, mt.gradientEstimate(a)}
	}
	// Insertion-sort by (value desc, index asc): n is the subgraph count of
	// one network, i.e. small.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && (est[j].v > est[j-1].v || (est[j].v == est[j-1].v && est[j].idx < est[j-1].idx)); j-- {
			est[j], est[j-1] = est[j-1], est[j]
		}
	}
	sel := make([]int, 0, width)
	for i := 0; i < width; i++ {
		sel = append(sel, est[i].idx)
	}
	return sel
}

// wave runs one scheduling wave — an engine round on every selected task,
// concurrently — within the remaining trial budget (> 0): per-task round sizes
// are clamped serially, at the barrier, in selection order, so the wave as a
// whole charges at most remaining trials, and a task the tasks before it left
// nothing for is not advanced.
func (mt *MultiTuner) wave(width, remaining int) {
	sel := mt.selectWave(width)
	caps := make([]int, 0, len(sel))
	for range sel {
		if remaining <= 0 {
			break
		}
		k := min(mt.Cfg.RoundTrials, remaining)
		remaining -= k
		caps = append(caps, k)
	}
	sel = sel[:len(caps)]
	mt.pool.Run(len(sel), func(j int) {
		a := sel[j]
		t := mt.Tasks[a]
		if mt.Engines[a].RunRound(t, caps[j]) == 0 {
			// The round produced nothing new (space exhausted or all
			// duplicates); inject random exploration so waves make progress.
			t.ExploreRandom(caps[j])
		}
	})
	mt.drainRecords(sel)
	for _, a := range sel {
		mt.allocations[a]++
		mt.gHist[a] = append(mt.gHist[a], mt.Tasks[a].WeightedBestExec())
	}
	snap := WaveSnapshot{
		Wave:       len(mt.History),
		Tasks:      sel,
		Trials:     mt.Trials(),
		TaskTrials: mt.TaskTrials(),
		CostSec:    mt.CostSec(),
		EstExec:    mt.EstimatedExec(),
	}
	mt.History = append(mt.History, snap)
	if mt.mab != nil {
		// Arm reward: the realized gradient estimate, normalized by the
		// current total so rewards stay scale-free (Eq. 4's R_t).
		a, reward := sel[0], 0.0
		if r := mt.gradientEstimate(a); !math.IsInf(snap.EstExec, 1) && snap.EstExec > 0 && !math.IsInf(r, 1) {
			reward = r / snap.EstExec
		}
		mt.mab.Update(a, reward)
	}
	if mt.OnProgress != nil {
		for _, a := range sel {
			t := mt.Tasks[a]
			mt.OnProgress(Progress{
				Task:        a,
				Wave:        snap.Wave,
				Allocation:  mt.allocations[a],
				TaskTrials:  t.Trials,
				TotalTrials: snap.Trials,
				BestExec:    t.BestExec,
				RunBest:     snap.EstExec,
				CostSec:     snap.CostSec,
			})
		}
	}
}

// RunCtx tunes until the measurement budget is exhausted. The final wave is
// narrowed and its per-task rounds clamped so the budget lands exactly
// (engines that measure in indivisible chunks may still overshoot by at most
// their chunk). If several consecutive waves measure nothing new — the
// schedule spaces are exhausted — it returns rather than spinning on an
// unreachable budget.
//
// Cancellation is cooperative, checked at wave barriers: a cancelled session
// finishes its in-flight wave — so every measurement is committed, its record
// drained to the recorder in the deterministic fan-in order, and the
// allocation history stays consistent — then stops instead of selecting
// another wave. It returns true if the context cut the run short. The context
// is only ever read at barriers, so an uncancelled run is the same run under
// any context, preserving the workers=1 ≡ workers=N byte-identical-journal
// contract.
func (mt *MultiTuner) RunCtx(ctx context.Context, budgetTrials int) bool {
	stalled := 0
	for {
		// Budget first, then cancellation — a run whose final wave spent the
		// budget completed, even if the context fired during that wave.
		before := mt.Trials()
		remaining := budgetTrials - before
		if remaining <= 0 {
			return false
		}
		if ctx.Err() != nil {
			return true
		}
		width := mt.Cfg.WaveWidth
		if need := (remaining + mt.Cfg.RoundTrials - 1) / mt.Cfg.RoundTrials; width > need {
			width = need
		}
		mt.wave(width, remaining)
		if mt.Trials() == before {
			if stalled++; stalled >= 3 {
				return false
			}
		} else {
			stalled = 0
		}
	}
}
