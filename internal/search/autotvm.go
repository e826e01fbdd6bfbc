package search

import (
	"math"

	"harl/internal/hardware"
	"harl/internal/schedule"
)

// AutoTVMConfig parameterizes the simulated-annealing baseline.
type AutoTVMConfig struct {
	// Chains is the number of parallel annealing chains per round.
	Chains int
	// Steps is the number of annealing steps per chain per round.
	Steps int
	// TStart and TEnd bound the geometric temperature decay across a round.
	TStart, TEnd float64
}

// DefaultAutoTVMConfig sizes the annealing round to the reproduction's
// candidate budget.
func DefaultAutoTVMConfig() AutoTVMConfig {
	return AutoTVMConfig{Chains: 16, Steps: 64, TStart: 1.0, TEnd: 0.05}
}

// AutoTVM is the simulated-annealing baseline (the search strategy HARL's
// related-work section attributes to AutoTVM): cost-model-guided annealing
// chains over the parameter space with heuristic acceptance probabilities,
// followed by top-K measurement.
type AutoTVM struct {
	Cfg AutoTVMConfig
}

// NewAutoTVM builds the baseline engine.
func NewAutoTVM(cfg AutoTVMConfig) *AutoTVM { return &AutoTVM{Cfg: cfg} }

// Name implements Engine.
func (a *AutoTVM) Name() string { return "autotvm" }

// RunRound implements Engine.
func (a *AutoTVM) RunRound(t *Task, measureK int) int {
	pool := make(candPool)
	decay := math.Pow(a.Cfg.TEnd/a.Cfg.TStart, 1/math.Max(1, float64(a.Cfg.Steps-1)))

	for c := 0; c < a.Cfg.Chains; c++ {
		sk := t.Sketches[t.RNG.Intn(len(t.Sketches))]
		cur := t.RandomSchedule(sk)
		curScore := t.Score(cur)
		pool.record(cur, curScore)
		temp := a.Cfg.TStart
		for s := 0; s < a.Cfg.Steps; s++ {
			next := cur.Mutate(t.RNG)
			nextScore := t.Score(next)
			pool.record(next, nextScore)
			// Metropolis acceptance on relative score.
			accept := nextScore >= curScore
			if !accept && curScore > 0 {
				p := math.Exp((nextScore - curScore) / curScore / math.Max(temp, 1e-9))
				accept = t.RNG.Bool(p)
			}
			if accept {
				cur, curScore = next, nextScore
			}
			temp *= decay
			t.Meas.AddSearchCost(hardware.EvoStepSec)
		}
	}

	cands := t.rankUnseen(pool)
	var batch []*schedule.Schedule
	for i := 0; i < len(cands) && len(batch) < measureK; i++ {
		batch = append(batch, cands[i].sched)
	}
	execs := t.MeasureBatch(batch)
	n := 0
	for _, e := range execs {
		if !math.IsNaN(e) {
			n++
		}
	}
	return n
}

// Random is the pure random-sampling baseline used in tests and ablations:
// every round measures measureK fresh uniform samples.
type Random struct{}

// NewRandom builds the baseline engine.
func NewRandom() *Random { return &Random{} }

// Name implements Engine.
func (r *Random) Name() string { return "random" }

// RunRound implements Engine.
func (r *Random) RunRound(t *Task, measureK int) int {
	var batch []*schedule.Schedule
	for i := 0; i < measureK*2 && len(batch) < measureK; i++ {
		sk := t.Sketches[t.RNG.Intn(len(t.Sketches))]
		s := t.RandomSchedule(sk)
		if !t.Seen(s) {
			batch = append(batch, s)
		}
	}
	execs := t.MeasureBatch(batch)
	n := 0
	for _, e := range execs {
		if !math.IsNaN(e) {
			n++
		}
	}
	return n
}
