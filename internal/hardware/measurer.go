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
// track nine, one PPO update two. They are hand-set — this tree measures an RL
// step some hundred times below its charge — and ROADMAP 1(a) recalibrates them.
const (
	// DefaultCompileSec is the per-trial program build + upload overhead.
	DefaultCompileSec = 1.2
	// DefaultRepeatMinSec is r_min from Table 5: a schedule is re-executed
	// until at least this much wall-clock has been spent measuring it.
	DefaultRepeatMinSec = 1.0
	// CostModelQuerySec is one cost-model prediction including candidate
	// feature extraction (feature extraction dominates in TVM-class systems).
	CostModelQuerySec = 1e-3
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
// goroutine measured it. The mutable bookkeeping (trial count, cost budget,
// best-so-far logs) is mutex-protected and appended in Commit order; callers
// that need bit-exact logs across worker counts (see search.ParallelPool)
// compute NoisyExec concurrently and Commit in a deterministic order.
type Measurer struct {
	Sim *Simulator

	CompileSec   float64
	RepeatMinSec float64

	mu        sync.Mutex
	noiseSeed uint64
	noiseSeq  map[uint64]uint64 // per-schedule-key measurement count
	trials    int
	costSec   float64
	cmQueries int64 // cost-model queries, charged at CostModelQuerySec each
	bestExec  float64
	execLog   []float64 // best-so-far exec time after each trial
	costLog   []float64 // cumulative search seconds after each trial
}

// NewMeasurer builds a measurer over the simulator with an independent noise
// seed drawn from the RNG.
func NewMeasurer(sim *Simulator, rng *xrand.RNG) *Measurer {
	return &Measurer{
		Sim:          sim,
		CompileSec:   DefaultCompileSec,
		RepeatMinSec: DefaultRepeatMinSec,
		noiseSeed:    rng.Uint64(),
		noiseSeq:     make(map[uint64]uint64),
		bestExec:     math.Inf(1),
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
// (compile + r_min repeats) to the search-time budget and appends to the
// best-so-far logs. Log order is the Commit call order.
func (m *Measurer) Commit(noisy float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	repeats := math.Max(3, math.Ceil(m.RepeatMinSec/noisy))
	m.costSec += m.CompileSec + repeats*noisy
	m.trials++
	if noisy < m.bestExec {
		m.bestExec = noisy
	}
	m.execLog = append(m.execLog, m.bestExec)
	m.costLog = append(m.costLog, m.costSecLocked())
}

// Measure runs one hardware trial: it returns the noisy measured execution
// time in seconds and charges the measurement cost to the search-time budget.
func (m *Measurer) Measure(s *schedule.Schedule) float64 {
	noisy := m.NoisyExec(s, m.ReserveSeq(s.Key()))
	m.Commit(noisy)
	return noisy
}

// AddSearchCost charges non-measurement tuner computation to the budget.
func (m *Measurer) AddSearchCost(sec float64) {
	m.mu.Lock()
	m.costSec += sec
	m.mu.Unlock()
}

// AddCostModelQueries charges n cost-model predictions. Queries are counted
// as an integer and priced at CostModelQuerySec when the budget is read, so
// the accounted total is independent of summation order under concurrency.
func (m *Measurer) AddCostModelQueries(n int) {
	m.mu.Lock()
	m.cmQueries += int64(n)
	m.mu.Unlock()
}

func (m *Measurer) costSecLocked() float64 {
	return m.costSec + float64(m.cmQueries)*CostModelQuerySec
}

// Trials returns the number of hardware measurements performed.
func (m *Measurer) Trials() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trials
}

// CostSec returns the total simulated search time so far.
func (m *Measurer) CostSec() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.costSecLocked()
}

// BestExec returns the best measured execution time so far (+Inf if none).
func (m *Measurer) BestExec() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bestExec
}

// BestLog returns the best-so-far execution time after each trial. The slice
// is live; read it only after measurement activity has quiesced.
func (m *Measurer) BestLog() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.execLog
}

// CostLog returns the cumulative search time after each trial (same caveat
// as BestLog).
func (m *Measurer) CostLog() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.costLog
}

// TimeToReach returns the simulated search seconds spent until the best
// measured execution time first dropped to target or below, and whether the
// target was reached at all. With no trials recorded it returns the current
// cost budget (0 for a fresh measurer) and false.
func (m *Measurer) TimeToReach(target float64) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, e := range m.execLog {
		if e <= target {
			return m.costLog[i], true
		}
	}
	return m.costSecLocked(), false
}

// TrialsToReach returns the number of trials until the best measured time
// first reached target, and whether it was reached.
func (m *Measurer) TrialsToReach(target float64) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, e := range m.execLog {
		if e <= target {
			return i + 1, true
		}
	}
	return m.trials, false
}
