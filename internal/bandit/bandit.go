// Package bandit implements the non-stationary multi-armed bandit of HARL's
// high-level decisions: Sliding-Window Upper-Confidence-Bound (SW-UCB, Eq. 1
// of the paper) for subgraph and sketch selection.
//
// SW-UCB selects O_t = argmax_a ( Q_t(τ,a) + c·sqrt( ln(min(t,τ)) / N_t(τ,a) ) ),
// where Q averages the rewards of arm a inside a sliding window of size τ and
// N counts the arm's pulls inside the window — the paper instantiates Q with
// Eq. 2 (windowed mean performance) for sketches and with Eq. 3/4 (Ansor's
// gradient estimate) for subgraphs.
package bandit

import (
	"math"

	"harl/internal/xrand"
)

// SWUCB is the sliding-window UCB policy of Eq. 1.
type SWUCB struct {
	C      float64 // exploration constant c (paper: 0.25)
	Window int     // window size τ (paper: 256)

	arms int
	t    int
	hist []pull // ring buffer of the last Window pulls

	rng *xrand.RNG
}

type pull struct {
	arm    int
	reward float64
}

// NewSWUCB creates an SW-UCB policy over the given number of arms.
func NewSWUCB(arms int, c float64, window int, rng *xrand.RNG) *SWUCB {
	if arms <= 0 {
		panic("bandit: SWUCB needs at least one arm")
	}
	return &SWUCB{C: c, Window: window, arms: arms, rng: rng}
}

// windowStats returns per-arm pull counts and mean rewards in the window.
func (b *SWUCB) windowStats() (counts []int, means []float64) {
	counts = make([]int, b.arms)
	sums := make([]float64, b.arms)
	for _, p := range b.hist {
		counts[p.arm]++
		sums[p.arm] += p.reward
	}
	means = make([]float64, b.arms)
	for a := range means {
		if counts[a] > 0 {
			means[a] = sums[a] / float64(counts[a])
		}
	}
	return counts, means
}

// Select implements Eq. 1: unexplored arms (N_t = 0 in the window) are pulled
// first; ties break uniformly at random so the policy is not order-biased.
func (b *SWUCB) Select() int {
	counts, means := b.windowStats()
	var unexplored []int
	for a, n := range counts {
		if n == 0 {
			unexplored = append(unexplored, a)
		}
	}
	if len(unexplored) > 0 {
		return unexplored[b.rng.Intn(len(unexplored))]
	}
	tEff := math.Min(float64(b.t), float64(b.Window))
	if tEff < 2 {
		tEff = 2
	}
	best, bestV := []int{0}, math.Inf(-1)
	for a := 0; a < b.arms; a++ {
		v := means[a] + b.C*math.Sqrt(math.Log(tEff)/float64(counts[a]))
		switch {
		case v > bestV:
			best, bestV = best[:0], v
			best = append(best, a)
		case v == bestV:
			best = append(best, a)
		}
	}
	return best[b.rng.Intn(len(best))]
}

// Update records the reward of a pulled arm: the pull enters the sliding
// window, evicting the oldest entry beyond τ.
func (b *SWUCB) Update(arm int, reward float64) {
	b.t++
	b.hist = append(b.hist, pull{arm, reward})
	if len(b.hist) > b.Window {
		b.hist = b.hist[1:]
	}
}
