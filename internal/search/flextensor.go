package search

import (
	"math"

	"harl/internal/hardware"
	"harl/internal/rl"
	"harl/internal/schedule"
)

// FlextensorConfig parameterizes the fixed-length RL baseline.
type FlextensorConfig struct {
	// TrackLength is the fixed number of modification steps per schedule
	// track — every track runs exactly this long regardless of when it peaks,
	// which is the inefficiency the paper's Observation 2 measures.
	TrackLength int
	// RL holds the agent's hyper-parameters.
	RL rl.Config
}

// DefaultFlextensorConfig matches the reproduction's round scale.
func DefaultFlextensorConfig() FlextensorConfig {
	return FlextensorConfig{TrackLength: 16, RL: rl.DefaultConfig()}
}

// Flextensor is the fixed-sketch, fixed-length RL baseline: it tunes only the
// first (general-template) sketch, measures every schedule it visits, and
// allocates a uniform number of steps to every track (Table 1's Flextensor
// row). It does not support subgraph/sketch selection.
type Flextensor struct {
	Cfg    FlextensorConfig
	agents map[*Task]*rl.Agent
}

// NewFlextensor builds the baseline engine.
func NewFlextensor(cfg FlextensorConfig) *Flextensor {
	return &Flextensor{Cfg: cfg, agents: make(map[*Task]*rl.Agent)}
}

func (f *Flextensor) agent(t *Task) *rl.Agent {
	if a := f.agents[t]; a != nil {
		return a
	}
	probe := t.RandomSchedule(t.Sketches[0])
	heads := []int{
		probe.NumTilingActions(),
		schedule.DeltaActions,
		schedule.DeltaActions,
		schedule.DeltaActions,
	}
	a := rl.NewAgent(len(probe.Features()), heads, f.Cfg.RL, t.RNG.Split())
	f.agents[t] = a
	return a
}

// RunRound implements Engine: as many fixed-length tracks as fit in the
// measurement budget, each step measured on hardware (Flextensor's design)
// with the measured performance ratio as the reward.
func (f *Flextensor) RunRound(t *Task, measureK int) int {
	agent := f.agent(t)
	sk := t.Sketches[0] // fixed sketch: no structure selection support
	nTracks := measureK / (f.Cfg.TrackLength + 1)
	if nTracks < 1 {
		nTracks = 1
	}
	measuredTotal := 0
	for tr := 0; tr < nTracks; tr++ {
		cur := t.RandomSchedule(sk)
		execs := t.MeasureBatch([]*schedule.Schedule{cur})
		curExec := execs[0]
		if math.IsNaN(curExec) {
			curExec = t.Meas.Sim.Exec(cur)
		} else {
			measuredTotal++
		}
		bestExec, bestStep := curExec, 0

		for step := 1; step <= f.Cfg.TrackLength; step++ {
			stateVec := cur.Features()
			dec := agent.Act(stateVec)
			next := cur.Apply(schedule.Action{Tiling: dec.Acts[0], ComputeAt: dec.Acts[1], Parallel: dec.Acts[2], Unroll: dec.Acts[3]})
			nextExecs := t.MeasureBatch([]*schedule.Schedule{next})
			nextExec := nextExecs[0]
			if math.IsNaN(nextExec) {
				nextExec = t.Meas.Sim.Exec(next)
			} else {
				measuredTotal++
			}
			reward := (1/nextExec - 1/curExec) / (1 / curExec)
			nextVal := agent.Value(next.Features())
			agent.Observe(rl.Transition{State: stateVec, Acts: dec.Acts, OldLogP: dec.LogProb,
				Reward: reward, Value: dec.Value, NextValue: nextVal})
			if agent.Tick() {
				t.Meas.AddSearchCost(hardware.RLTrainSec)
			}
			t.Meas.AddSearchCost(hardware.RLStepSec)
			cur, curExec = next, nextExec
			if nextExec < bestExec {
				bestExec, bestStep = nextExec, step
			}
		}
		t.TrackPositions = append(t.TrackPositions, float64(bestStep)/float64(f.Cfg.TrackLength))
	}
	return measuredTotal
}
