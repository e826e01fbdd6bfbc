package search

import (
	"math"

	"harl/internal/schedule"
)

// Random is the pure random-sampling baseline used in tests and ablations:
// every round measures measureK fresh uniform samples.
type Random struct{}

// NewRandom builds the baseline engine.
func NewRandom() *Random { return &Random{} }

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
