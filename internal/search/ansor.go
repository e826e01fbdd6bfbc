package search

import (
	"math"
	"sort"

	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/xrand"
)

// AnsorConfig parameterizes the evolutionary baseline.
type AnsorConfig struct {
	// Population is the evolutionary population size per generation.
	Population int
	// Generations is the number of evolution generations per round.
	Generations int
	// EliteKeep is how many best measured schedules seed the next round.
	EliteKeep int
	// EpsGreedy is the fraction of the measured batch picked at random from
	// the candidate pool instead of by predicted score.
	EpsGreedy float64
}

// DefaultAnsorConfig matches the scale of Ansor's published defaults, with
// the population×generations product sized to visit about as many candidates
// per round as HARL's episode (for the paper's "same number of measurement
// candidates in each round" fairness setup).
func DefaultAnsorConfig() AnsorConfig {
	return AnsorConfig{
		Population:  128,
		Generations: 8,
		EliteKeep:   24,
		EpsGreedy:   0.05,
	}
}

// Ansor is the evolutionary-search baseline: uniform sketch selection,
// uniform (undirected) mutation, cost-model-ranked top-K measurement. The
// subgraph-level greedy gradient allocation lives in internal/core.
type Ansor struct {
	Cfg    AnsorConfig
	states map[*Task]*ansorState
}

type ansorState struct {
	elites []eliteEntry
}

type eliteEntry struct {
	sched *schedule.Schedule
	exec  float64
}

// NewAnsor builds the baseline engine.
func NewAnsor(cfg AnsorConfig) *Ansor {
	return &Ansor{Cfg: cfg, states: make(map[*Task]*ansorState)}
}

// RunRound implements Engine: one evolutionary round followed by top-K
// measurement and a cost-model refit.
func (a *Ansor) RunRound(t *Task, measureK int) int {
	st := a.states[t]
	if st == nil {
		st = &ansorState{}
		a.states[t] = st
	}

	// --- initial population: measured elites + random sketch fills ----------
	pop := make([]*schedule.Schedule, 0, a.Cfg.Population)
	for _, e := range st.elites {
		if len(pop) >= a.Cfg.Population/2 {
			break
		}
		pop = append(pop, e.sched.Clone())
	}
	for len(pop) < a.Cfg.Population {
		sk := t.Sketches[t.RNG.Intn(len(t.Sketches))] // uniform sketch selection
		pop = append(pop, t.RandomSchedule(sk))
	}

	// --- evolution: score, select ∝ score, mutate uniformly ------------------
	pool := make(candPool, a.Cfg.Population*(a.Cfg.Generations+1))
	seen := make(map[uint64]bool, a.Cfg.Population)
	// scorePool batch-scores the configurations of pop not yet in the pool,
	// fanning model queries across the task's worker pool (duplicates within
	// a generation are scored once, as the old per-schedule memoization did).
	scorePool := func(pop []*schedule.Schedule) {
		var fresh []*schedule.Schedule
		clear(seen)
		for _, s := range pop {
			k := s.Key()
			if _, ok := pool[k]; ok || seen[k] {
				continue
			}
			seen[k] = true
			fresh = append(fresh, s)
		}
		for i, sc := range t.ScoreBatch(fresh) {
			pool.record(fresh[i], sc)
		}
	}

	scores, cum := make([]float64, len(pop)), make([]float64, len(pop))
	for g := 0; g <= a.Cfg.Generations; g++ {
		scorePool(pop)
		maxS := 0.0
		for i, s := range pop {
			scores[i] = pool[s.Key()].score
			if scores[i] > maxS {
				maxS = scores[i]
			}
		}
		if g == a.Cfg.Generations {
			break
		}
		for i, sc := range scores {
			if maxS > 0 {
				cum[i] = math.Exp(3 * (sc/maxS - 1)) // soft fitness-proportional
			} else {
				cum[i] = 1
			}
		}
		xrand.RunningSums(cum)
		next := make([]*schedule.Schedule, len(pop))
		for i := range next {
			parent := pop[t.RNG.Choice(cum)]
			next[i] = parent.Mutate(t.RNG) // uniform schedule selection π(s_t|s_{t-1})
			t.Meas.AddSearchCost(hardware.EvoStepSec)
		}
		pop = next
	}

	// --- ε-greedy top-K measurement ------------------------------------------
	cands := t.rankUnseen(pool)
	// At least one random measurement per round — Ansor's ε-greedy diversity
	// must survive small per-round budgets or evolution converges prematurely.
	nRandom := int(math.Ceil(float64(measureK) * a.Cfg.EpsGreedy))
	var batch []*schedule.Schedule
	for i := 0; i < len(cands) && len(batch) < measureK-nRandom; i++ {
		batch = append(batch, cands[i].sched)
	}
	for len(batch) < measureK && len(cands) > 0 {
		batch = append(batch, cands[t.RNG.Intn(len(cands))].sched)
	}

	execs := t.MeasureBatch(batch)
	n := 0
	for i, e := range execs {
		if math.IsNaN(e) {
			continue
		}
		n++
		st.elites = append(st.elites, eliteEntry{batch[i], e})
	}
	sort.Slice(st.elites, func(i, j int) bool { return st.elites[i].exec < st.elites[j].exec })
	if len(st.elites) > a.Cfg.EliteKeep {
		st.elites = st.elites[:a.Cfg.EliteKeep]
	}
	return n
}
