package hardware

import (
	"math"
	"sync"

	"harl/internal/schedule"
	"harl/internal/xrand"
)

// Search-computation cost constants (seconds of simulated tuner time), what the
// search-time accounting charges: a hardware measurement costs seconds (compile
// + r_min repeats), one cost-model query a millisecond, one RL step for one
// track nine, one PPO update two. They are hand-set — this tree measures an
// RL step some hundred times below its charge — and ROADMAP item 14
// recalibrates them.
const (
	// defaultCompileSec is the per-trial program build + upload overhead.
	defaultCompileSec = 1.2
	// defaultRepeatMinSec is r_min from Table 5: a schedule is re-executed
	// until at least this much wall-clock has been spent measuring it.
	defaultRepeatMinSec = 1.0
	// costModelQuerySec is one cost-model prediction including candidate
	// feature extraction (feature extraction dominates in TVM-class systems).
	costModelQuerySec = 1e-3
	// RLStepSec is one actor-critic forward pass for one track, including
	// state featurization and environment application.
	RLStepSec = 9e-3
	// RLTrainSec is one PPO update on a minibatch.
	RLTrainSec = 2e-3
	// EvoStepSec is one evolutionary mutation + bookkeeping.
	EvoStepSec = 5e-6
)

// Measurer is the simulated measurement harness shared by all search engines.
// It adds seeded Gaussian noise to the simulator's deterministic time,
// applies the paper's repeat rule (r_min), and accounts the total simulated
// search time (measurement cost plus search-computation cost reported by the
// engines), which is the "search time" metric of Figures 6 and 9.
//
// Concurrency: the Measurer is safe for parallel use. Noise is not drawn from
// a sequential stream but derived by hashing (schedule key, per-schedule
// repetition index, measurer seed), so the measured value of a schedule does
// not depend on how many other schedules were measured before it or on which
// goroutine measured it. The mutable bookkeeping (repetition indices and the
// cost budget) is mutex-protected. Best-so-far logs are search.Task's, per
// task, appended in the deterministic order its callers Commit in after
// computing NoisyExec concurrently (see search.ParallelPool).
type Measurer struct {
	Sim *Simulator

	CompileSec   float64
	RepeatMinSec float64

	mu        sync.Mutex
	noiseSeed uint64
	noiseSeq  map[uint64]uint64 // per-schedule-key measurement count
	costSec   float64
	cmQueries int64 // cost-model queries, charged at costModelQuerySec each
}

// NewMeasurer builds a measurer over the simulator with an independent noise
// seed drawn from the RNG.
func NewMeasurer(sim *Simulator, rng *xrand.RNG) *Measurer {
	return &Measurer{
		Sim:          sim,
		CompileSec:   defaultCompileSec,
		RepeatMinSec: defaultRepeatMinSec,
		noiseSeed:    rng.Uint64(),
		noiseSeq:     make(map[uint64]uint64),
	}
}

// ReserveSeq claims the next repetition index for the schedule key. Repeated
// measurements of the same schedule get fresh noise draws while distinct
// schedules stay order-independent. Safe for concurrent use.
func (m *Measurer) ReserveSeq(key uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.noiseSeq[key]
	m.noiseSeq[key] = seq + 1
	return seq
}

// NoisyExec returns the noisy measured execution time of one trial of the
// schedule at the given repetition index. It reads no mutable state, so any
// number of goroutines may evaluate trials concurrently; the result depends
// only on (schedule, seq, measurer seed).
func (m *Measurer) NoisyExec(s *schedule.Schedule, seq uint64) float64 {
	return NoisyExecSeeded(m.Sim, s, m.noiseSeed, seq)
}

// NoisyExecSeeded is the measurement function itself, factored free of the
// Measurer's bookkeeping: the noisy execution time of one trial as a pure
// function of (simulator, schedule, noise seed, repetition index). It is the
// quantity a remote measurement worker reproduces bit-exactly from the wire
// protocol's (subgraph, target, seed, steps, seq) — the foundation of the
// fleet's byte-identical-journal contract (see internal/fleet).
func NoisyExecSeeded(sim *Simulator, s *schedule.Schedule, seed, seq uint64) float64 {
	exec := sim.Exec(s)
	noisy := exec * (1 + sim.Plat.NoiseAmp*noiseAt(s.Key(), seed, seq))
	if noisy < 1e-8 {
		noisy = 1e-8
	}
	return noisy
}

// NoiseSeed returns the measurer's noise seed — shipped to remote measurement
// workers so they draw the same per-trial noise this measurer would.
func (m *Measurer) NoiseSeed() uint64 { return m.noiseSeed }

// noiseAt maps (key, seed, seq) to a standard normal variate via Box-Muller
// on two hash-derived uniforms.
func noiseAt(key, seed, seq uint64) float64 {
	u1 := xrand.HashUnit(key, seed, seq, 0x6d656173757265)
	u2 := xrand.HashUnit(key, seed, seq, 0x6e6f697365)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Commit records one completed trial: it charges the measurement cost
// (compile + r_min repeats) to the search-time budget.
func (m *Measurer) Commit(noisy float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	repeats := math.Max(3, math.Ceil(m.RepeatMinSec/noisy))
	m.costSec += m.CompileSec + repeats*noisy
}

// AddSearchCost charges non-measurement tuner computation to the budget.
func (m *Measurer) AddSearchCost(sec float64) {
	m.mu.Lock()
	m.costSec += sec
	m.mu.Unlock()
}

// AddCostModelQueries charges n cost-model predictions. Queries are counted
// as an integer and priced at costModelQuerySec when the budget is read, so
// the accounted total is independent of summation order under concurrency.
func (m *Measurer) AddCostModelQueries(n int) {
	m.mu.Lock()
	m.cmQueries += int64(n)
	m.mu.Unlock()
}

// CostSec returns the total simulated search time so far.
func (m *Measurer) CostSec() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.costSec + float64(m.cmQueries)*costModelQuerySec
}
