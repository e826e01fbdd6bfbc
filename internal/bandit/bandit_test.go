package bandit

import (
	"testing"

	"harl/internal/xrand"
)

// pullLoop runs an SW-UCB against arm reward functions for n steps and
// returns per-arm pull counts.
func pullLoop(p *SWUCB, rewards func(step, arm int) float64, n int) []int {
	var counts []int
	for step := 0; step < n; step++ {
		a := p.Select()
		for len(counts) <= a {
			counts = append(counts, 0)
		}
		counts[a]++
		p.Update(a, rewards(step, a))
	}
	return counts
}

func TestSWUCBFindsBestStationaryArm(t *testing.T) {
	rng := xrand.New(1)
	b := NewSWUCB(3, 0.25, 256, rng.Split())
	noise := rng.Split()
	means := []float64{0.2, 0.8, 0.5}
	counts := pullLoop(b, func(_, arm int) float64 {
		return means[arm] + 0.1*(noise.Float64()-0.5)
	}, 600)
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Fatalf("best arm underplayed: %v", counts)
	}
	if counts[1] < 300 {
		t.Fatalf("best arm only %d/600 pulls", counts[1])
	}
}

func TestSWUCBAdaptsToNonStationarity(t *testing.T) {
	rng := xrand.New(2)
	b := NewSWUCB(2, 0.25, 64, rng.Split())
	noise := rng.Split()
	// Arm 0 is best for the first half, arm 1 for the second half.
	lastQuarter := make([]int, 2)
	for step := 0; step < 800; step++ {
		a := b.Select()
		r := 0.0
		if (step < 400 && a == 0) || (step >= 400 && a == 1) {
			r = 1
		}
		r += 0.1 * (noise.Float64() - 0.5)
		b.Update(a, r)
		if step >= 600 {
			lastQuarter[a]++
		}
	}
	if lastQuarter[1] < 3*lastQuarter[0] {
		t.Fatalf("window did not adapt after switch: %v", lastQuarter)
	}
}

func TestSWUCBExploresAllArmsFirst(t *testing.T) {
	rng := xrand.New(3)
	b := NewSWUCB(5, 0.25, 256, rng)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		a := b.Select()
		if seen[a] {
			t.Fatalf("arm %d pulled before all arms explored", a)
		}
		seen[a] = true
		b.Update(a, 0.5)
	}
}

func TestSWUCBWindowEviction(t *testing.T) {
	rng := xrand.New(4)
	b := NewSWUCB(2, 0.25, 10, rng)
	for i := 0; i < 50; i++ {
		b.Update(0, 1)
	}
	counts, _ := b.windowStats()
	if counts[0] != 10 {
		t.Fatalf("window count %d want 10", counts[0])
	}
}

func TestSWUCBPanicsOnZeroArms(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero arms did not panic")
		}
	}()
	NewSWUCB(0, 0.25, 8, xrand.New(1))
}
