package search

import (
	"math"
	"sort"

	"harl/internal/bandit"
	"harl/internal/hardware"
	"harl/internal/rl"
	"harl/internal/schedule"
)

// HARLConfig parameterizes the hierarchical adaptive RL engine. Defaults
// follow the paper's Table 5, scaled where the paper's value is tied to its
// much larger per-round track count.
type HARLConfig struct {
	// Tracks is I, the number of initial schedule tracks per episode.
	Tracks int
	// Lambda is the adaptive-stopping window size λ (steps between
	// elimination rounds). Paper default: 20.
	Lambda int
	// Rho is the elimination ratio ρ (fraction of live tracks dropped after
	// each window). Paper default: 0.5.
	Rho float64
	// MinTracks is p̂, the minimal number of surviving tracks; the episode
	// ends after the window in which the count reaches it.
	MinTracks int
	// AdaptiveStopping toggles the adaptive-stopping module; disabled it
	// becomes the paper's "Hierarchical-RL" fixed-length ablation.
	AdaptiveStopping bool
	// FixedLength is the per-track episode length used when adaptive
	// stopping is off, sized so both modes visit a similar number of
	// candidates (the paper's Figure 4 equivalence).
	FixedLength int
	// RL holds the PPO hyper-parameters (paper Table 5).
	RL rl.Config
}

// DefaultHARLConfig returns the paper's published parameters at the
// reproduction's per-round scale.
func DefaultHARLConfig() HARLConfig {
	return HARLConfig{
		Tracks:           32,
		Lambda:           20,
		Rho:              0.5,
		MinTracks:        8,
		AdaptiveStopping: true,
		FixedLength:      35, // 32·35 ≈ 32·20+16·20+8·20 candidates
		RL:               rl.DefaultConfig(),
	}
}

// sketchC and sketchWindow are the sketch-level SW-UCB constants (c=0.25,
// τ=256).
const (
	sketchC      = 0.25
	sketchWindow = 256
)

// HARL is the paper's search engine: SW-UCB sketch selection, PPO-driven
// parameter modification over the Table-3 action space, adaptive-stopping
// track control and cost-model top-K measurement (Algorithm 1).
type HARL struct {
	Cfg    HARLConfig
	states map[*Task]*harlState
}

type harlState struct {
	agent        *rl.Agent
	mab          *bandit.SWUCB
	bestPerfEver float64

	// Scratch of one window step (stepTracks), one entry or row per live track.
	x     []float64 // row-major block of the tracks' states, then one of their successors'
	decs  []rl.Decision
	vals  []float64            // critic values of the successors
	nexts []*schedule.Schedule // the successors
}

// NewHARL builds the engine.
func NewHARL(cfg HARLConfig) *HARL {
	return &HARL{Cfg: cfg, states: make(map[*Task]*harlState)}
}

func (h *HARL) state(t *Task) *harlState {
	st := h.states[t]
	if st != nil {
		return st
	}
	stateDim := len(t.RandomSchedule(t.Sketches[0]).Features())
	probe := t.RandomSchedule(t.Sketches[0])
	heads := []int{
		probe.NumTilingActions(),
		schedule.DeltaActions, // compute-at
		schedule.DeltaActions, // parallel-loops
		schedule.DeltaActions, // auto-unroll
	}
	st = &harlState{
		agent: rl.NewAgent(stateDim, heads, h.Cfg.RL, t.RNG.Split()),
		mab:   bandit.NewSWUCB(len(t.Sketches), sketchC, sketchWindow, t.RNG.Split()),
	}
	h.states[t] = st
	return st
}

// track is one schedule track of an episode (a search path from one initial
// schedule, Section 2.2).
type track struct {
	sched     *schedule.Schedule
	score     float64 // cost-model score of the current schedule
	bestScore float64
	bestStep  int
	steps     int
	reward    float64 // of the step in flight
	advSum    float64 // advantage accumulated in the current window
	advN      int
	alive     bool
}

// RunRound implements Engine: one episode of Algorithm 1 — parameter
// modification phase with adaptive stopping, then the top-K selection phase.
func (h *HARL) RunRound(t *Task, measureK int) int {
	st := h.state(t)

	// --- sketch selection (SW-UCB over the task's sketches) ------------------
	var skIdx int
	if len(t.Sketches) == 1 {
		skIdx = t.RNG.Intn(len(t.Sketches))
	} else {
		skIdx = st.mab.Select()
	}
	sk := t.Sketches[skIdx]

	// --- Phase 1: parameter modification --------------------------------------
	pool := make(candPool, h.Cfg.Tracks*(1+h.Cfg.FixedLength)) // an episode's candidates, either stopping mode

	inits := make([]*schedule.Schedule, h.Cfg.Tracks)
	for i := range inits {
		inits[i] = t.RandomSchedule(sk)
	}
	initScores := t.ScoreBatch(inits)
	tracks := make([]*track, h.Cfg.Tracks)
	for i, s := range inits {
		sc := initScores[i]
		tracks[i] = &track{sched: s, score: sc, bestScore: sc, alive: true}
		pool.record(s, sc)
	}

	alive := len(tracks)
	step := 0
	maxSteps := h.Cfg.Lambda * 8 // hard cap against degenerate configurations
	for {
		windowSteps := h.Cfg.Lambda
		if !h.Cfg.AdaptiveStopping {
			windowSteps = h.Cfg.FixedLength
		}
		live := tracks[:0:0]
		for _, tr := range tracks {
			if tr.alive {
				live = append(live, tr)
			}
		}
		for w := 0; w < windowSteps; w++ {
			h.stepTracks(t, st, live, pool)
			step++
			if st.agent.Tick() {
				t.Meas.AddSearchCost(hardware.RLTrainSec)
			}
		}
		if !h.Cfg.AdaptiveStopping || alive <= h.Cfg.MinTracks || step >= maxSteps {
			break
		}
		// Sort live tracks by windowed advantage (Eq. 6) and eliminate the
		// lowest ρ fraction, clamped so at least MinTracks survive. The
		// survivors get at least one more window before the episode ends.
		sort.Slice(live, func(i, j int) bool { return live[i].meanAdv() > live[j].meanAdv() })
		drop := int(float64(alive) * h.Cfg.Rho)
		if alive-drop < h.Cfg.MinTracks {
			drop = alive - h.Cfg.MinTracks
		}
		for i := alive - drop; i < alive; i++ {
			live[i].alive = false
			t.recordTrackPosition(live[i])
		}
		alive -= drop
		for _, tr := range live {
			tr.advSum, tr.advN = 0, 0
		}
	}
	for _, tr := range tracks {
		if tr.alive {
			t.recordTrackPosition(tr)
		}
	}

	// --- Phase 2: top-K selection and measurement -----------------------------
	cands := t.rankUnseen(pool)
	// Measure mostly the top-scored candidates, keeping a small diverse
	// fraction so the cost model keeps seeing off-policy programs (the
	// entropy-style exploration of the measurement phase).
	nDiverse := measureK / 8
	var batch []*schedule.Schedule
	for i := 0; i < len(cands) && len(batch) < measureK-nDiverse; i++ {
		batch = append(batch, cands[i].sched)
	}
	for len(batch) < measureK && len(cands) > 0 {
		batch = append(batch, cands[t.RNG.Intn(len(cands))].sched)
	}
	execs := t.MeasureBatch(batch)

	// --- MAB update with the normalized maximal performance X_t (Eq. 2) -------
	roundBest := 0.0
	n := 0
	for _, e := range execs {
		if math.IsNaN(e) {
			continue
		}
		n++
		if p := 1 / e; p > roundBest {
			roundBest = p
		}
	}
	if roundBest > st.bestPerfEver {
		st.bestPerfEver = roundBest
	}
	if st.bestPerfEver > 0 && len(t.Sketches) > 1 {
		st.mab.Update(skIdx, roundBest/st.bestPerfEver)
	}
	return n
}

// stepTracks advances every live track by one joint action: the actor selects
// a modification set M per track, the environment applies it, the cost model
// provides the ratio reward, and the critic's TD error becomes the advantage
// recorded for PPO training and adaptive stopping (Algorithm 1, lines 7-13).
// Policy, cost model and critic are each queried once for all tracks — the
// policy and critic weights only change in Tick, after the step, and the model
// only after a measurement — and every ordered effect (RNG draws, pool
// records, search cost, replay buffer) happens in track order.
func (h *HARL) stepTracks(t *Task, st *harlState, live []*track, pool candPool) {
	n, dim := len(live), t.FeatureDim()
	if len(st.decs) < n {
		st.x, st.decs, st.vals = make([]float64, 2*n*dim), make([]rl.Decision, n), make([]float64, n)
		st.nexts = make([]*schedule.Schedule, n)
	}
	x, y, decs, vals, nexts := st.x[:n*dim], st.x[n*dim:2*n*dim], st.decs[:n], st.vals[:n], st.nexts[:n]
	for i, tr := range live {
		copy(x[i*dim:], tr.sched.Features())
	}
	st.agent.ActBatch(decs, x)
	for i, tr := range live {
		acts := decs[i].Acts
		nexts[i] = tr.sched.Apply(schedule.Action{Tiling: acts[0], ComputeAt: acts[1], Parallel: acts[2], Unroll: acts[3]})
	}
	scores := t.ScoreBatch(nexts)
	for i, tr := range live {
		next, nextScore := nexts[i], scores[i]
		tr.reward = 0
		if tr.score > 0 {
			tr.reward = (nextScore - tr.score) / tr.score
		}
		tr.sched, tr.score = next, nextScore
		copy(y[i*dim:], next.Features())
		tr.steps++
		if nextScore > tr.bestScore {
			tr.bestScore = nextScore
			tr.bestStep = tr.steps
		}
		pool.record(next, nextScore)
		t.Meas.AddSearchCost(hardware.RLStepSec)
	}
	st.agent.ValueBatch(vals, y)
	for i, tr := range live {
		dec := &decs[i]
		st.agent.Observe(rl.Transition{State: x[i*dim : (i+1)*dim], Acts: dec.Acts, OldLogP: dec.LogProb,
			Reward: tr.reward, Value: dec.Value, NextValue: vals[i]})
		tr.advSum += tr.reward + h.Cfg.RL.Gamma*vals[i] - dec.Value
		tr.advN++
	}
}

func (tr *track) meanAdv() float64 {
	if tr.advN == 0 {
		return math.Inf(-1)
	}
	return tr.advSum / float64(tr.advN)
}

// recordTrackPosition stores the relative position of the track's critical
// step (best cost-model score along the path) for Fig. 1(c)/7(b) histograms.
func (t *Task) recordTrackPosition(tr *track) {
	if tr.steps == 0 {
		return
	}
	t.TrackPositions = append(t.TrackPositions, float64(tr.bestStep)/float64(tr.steps))
}

// Agent exposes the per-task PPO agent (tests and diagnostics).
func (h *HARL) Agent(t *Task) *rl.Agent {
	if st := h.states[t]; st != nil {
		return st.agent
	}
	return nil
}
