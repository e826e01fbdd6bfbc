package rl

import (
	"math"
	"runtime"
	"testing"

	"harl/internal/xrand"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	// Table 5 of the paper.
	if c.LrActor != 3e-4 || c.LrCritic != 1e-3 || c.Gamma != 0.9 ||
		c.WMSE != 0.5 || c.WEntropy != 0.01 || c.TrainInterval != 2 {
		t.Fatalf("config deviates from Table 5: %+v", c)
	}
}

func TestActShapes(t *testing.T) {
	rng := xrand.New(1)
	a := NewAgent(6, []int{10, 3, 3, 3}, DefaultConfig(), rng)
	d := a.Act([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6})
	if len(d.Acts) != 4 {
		t.Fatalf("acts %v", d.Acts)
	}
	if d.Acts[0] < 0 || d.Acts[0] >= 10 {
		t.Fatalf("head0 action %d", d.Acts[0])
	}
	for k := 1; k < 4; k++ {
		if d.Acts[k] < 0 || d.Acts[k] >= 3 {
			t.Fatalf("head%d action %d", k, d.Acts[k])
		}
	}
	if d.LogProb > 0 || math.IsInf(d.LogProb, 0) {
		t.Fatalf("logprob %f", d.LogProb)
	}
}

func TestAdvantageFormula(t *testing.T) {
	o := outcome{reward: 1, value: 2, nextValue: 3}
	// Eq. 6: A = r + γ·V(s') − V(s).
	if got := o.advantage(0.9); math.Abs(got-(1+0.9*3-2)) > 1e-12 {
		t.Fatalf("advantage %f", got)
	}
}

// TestBufferRing observes 20 transitions into a ring of 8: row r must hold the
// last transition i with i mod 8 = r, state, sub-actions and scalars.
func TestBufferRing(t *testing.T) {
	rng := xrand.New(2)
	cfg := DefaultConfig()
	cfg.BufferCap = 8
	a := NewAgent(2, []int{3, 5}, cfg, rng)
	for i := 0; i < 20; i++ {
		f := float64(i)
		a.Observe(Transition{State: []float64{f, -f}, Acts: []int{i % 3, i % 5}, OldLogP: -f, Reward: 2 * f, Value: 3 * f, NextValue: 4 * f})
	}
	if a.rows != 8 {
		t.Fatalf("ring holds %d rows want cap 8", a.rows)
	}
	for r := 0; r < 8; r++ {
		i := 16 + r
		if r >= 4 {
			i = 8 + r
		}
		f := float64(i)
		if a.states[2*r] != f || a.states[2*r+1] != -f || a.acts[2*r] != int32(i%3) || a.acts[2*r+1] != int32(i%5) ||
			a.outcomes[r] != (outcome{-f, 2 * f, 3 * f, 4 * f}) {
			t.Fatalf("row %d = %v %v %+v, want transition %d", r, a.states[2*r:2*r+2], a.acts[2*r:2*r+2], a.outcomes[r], i)
		}
	}
}

func TestTickTrainsAtInterval(t *testing.T) {
	rng := xrand.New(3)
	cfg := DefaultConfig()
	cfg.TrainInterval = 2
	a := NewAgent(2, []int{3}, cfg, rng)
	for i := 0; i < 16; i++ {
		d := a.Act([]float64{0.5, 0.5})
		a.Observe(Transition{State: []float64{0.5, 0.5}, Acts: d.Acts, OldLogP: d.LogProb, Value: d.Value})
	}
	trained := 0
	for i := 0; i < 10; i++ {
		if a.Tick() {
			trained++
		}
	}
	if trained != 5 {
		t.Fatalf("trained %d of 10 ticks at interval 2", trained)
	}
	if a.Updates() != 5 {
		t.Fatalf("updates %d", a.Updates())
	}
}

// A two-armed bandit dressed as a one-step environment: action 1 of head 0
// always yields reward 1, action 0 yields 0. The policy must learn to prefer
// action 1.
func TestPolicyLearnsBandit(t *testing.T) {
	rng := xrand.New(4)
	cfg := DefaultConfig()
	cfg.LrActor = 3e-3 // speed up the toy problem
	cfg.MiniBatch = 32
	a := NewAgent(2, []int{2}, cfg, rng)
	state := []float64{1, 0}
	for step := 0; step < 1500; step++ {
		d := a.Act(state)
		r := 0.0
		if d.Acts[0] == 1 {
			r = 1
		}
		a.Observe(Transition{
			State: state, Acts: d.Acts, OldLogP: d.LogProb,
			Reward: r, Value: d.Value, NextValue: 0,
		})
		a.Tick()
	}
	// Evaluate the learned preference.
	good := 0
	const evals = 200
	for i := 0; i < evals; i++ {
		if a.Act(state).Acts[0] == 1 {
			good++
		}
	}
	if good < evals*3/4 {
		t.Fatalf("policy chose the rewarding arm only %d/%d times", good, evals)
	}
}

// A state-conditional bandit: the rewarding arm depends on the state, so the
// policy must actually condition on its input.
func TestPolicyLearnsStateConditionalBandit(t *testing.T) {
	rng := xrand.New(5)
	cfg := DefaultConfig()
	cfg.LrActor = 3e-3
	cfg.MiniBatch = 32
	a := NewAgent(2, []int{2}, cfg, rng)
	states := [][]float64{{1, 0}, {0, 1}}
	for step := 0; step < 3000; step++ {
		s := states[step%2]
		d := a.Act(s)
		r := 0.0
		if (s[0] == 1 && d.Acts[0] == 0) || (s[1] == 1 && d.Acts[0] == 1) {
			r = 1
		}
		a.Observe(Transition{State: s, Acts: d.Acts, OldLogP: d.LogProb, Reward: r, Value: d.Value})
		a.Tick()
	}
	for si, s := range states {
		good := 0
		for i := 0; i < 200; i++ {
			act := a.Act(s).Acts[0]
			if (si == 0 && act == 0) || (si == 1 && act == 1) {
				good++
			}
		}
		if good < 140 {
			t.Fatalf("state %d: correct arm only %d/200", si, good)
		}
	}
}

func TestCriticLearnsValue(t *testing.T) {
	rng := xrand.New(6)
	cfg := DefaultConfig()
	a := NewAgent(2, []int{2}, cfg, rng)
	// Constant reward 1 with NextValue 0: target value = 1 everywhere.
	state := []float64{0.5, 0.5}
	for step := 0; step < 2000; step++ {
		d := a.Act(state)
		a.Observe(Transition{State: state, Acts: d.Acts, OldLogP: d.LogProb, Reward: 1, Value: d.Value, NextValue: 0})
		a.Tick()
	}
	if v := a.Value(state); math.Abs(v-1) > 0.3 {
		t.Fatalf("critic value %f want ≈1", v)
	}
}

// TestTrainAllocsNearZero pins the Train hot path to agent-owned scratch:
// after one warm-up update, further updates must not allocate. PPO training
// is most of a HARL session (the ledger's op-gemm-harl), so allocation churn
// here is tuner wall-clock (and GC) time.
func TestTrainAllocsNearZero(t *testing.T) {
	rng := xrand.New(11)
	a := NewAgent(6, []int{10, 3, 3, 3}, DefaultConfig(), rng)
	state := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	for i := 0; i < 100; i++ {
		d := a.Act(state)
		a.Observe(Transition{State: state, Acts: d.Acts, OldLogP: d.LogProb,
			Reward: float64(i % 3), Value: d.Value, NextValue: d.Value})
	}
	a.Train() // warm the scratch buffers
	if n := totalAllocs(10, a.Train); n != 0 {
		t.Fatalf("10 warm Trains allocate %d objects, want 0", n)
	}
}

// TestWindowStepAllocs pins one HARL window step — every live track acts in
// one ActBatch, is valued in one ValueBatch and observed, then the agent ticks
// (training on every other tick) — to no allocation: Decision.Acts are agent
// scratch and Observe copies into the ring allocated with the agent.
func TestWindowStepAllocs(t *testing.T) {
	const tracks = 32
	a := NewAgent(23, []int{101, 3, 3, 3}, DefaultConfig(), xrand.New(12))
	states := randStates(xrand.New(13), tracks, 23)
	var x []float64
	for _, s := range states {
		x = append(x, s...)
	}
	decs, vals := make([]Decision, tracks), make([]float64, tracks)
	step := func() {
		a.ActBatch(decs, x)
		a.ValueBatch(vals, x)
		for i, d := range decs {
			a.Observe(Transition{State: states[i], Acts: d.Acts, OldLogP: d.LogProb,
				Reward: 0.01, Value: d.Value, NextValue: vals[i]})
		}
		a.Tick()
	}
	step()
	step() // the second tick trains: scratch is warm
	if n := totalAllocs(10, step); n != 0 {
		t.Fatalf("10 warm window steps allocate %d objects, want 0", n)
	}
	if n := totalAllocs(10, func() { a.Act(states[0]); a.Value(states[0]) }); n != 0 {
		t.Fatalf("10 Act+Value pairs allocate %d objects, want 0", n)
	}
}

// TestObserveAllocs pins Observe to the ring allocated with the agent: a fresh
// agent fills it and wraps around without allocating.
func TestObserveAllocs(t *testing.T) {
	cfg := DefaultConfig()
	a := NewAgent(23, []int{101, 3, 3, 3}, cfg, xrand.New(14))
	tr := Transition{State: make([]float64, 23), Acts: make([]int, 4), Reward: 0.01}
	if n := totalAllocs(cfg.BufferCap+10, func() { a.Observe(tr) }); n != 0 {
		t.Fatalf("%d Observes allocate %d objects, want 0", cfg.BufferCap+10, n)
	}
}

// TestObserveCopies feeds one agent every transition through a single state
// and sub-action buffer that the test overwrites after each Observe, and an
// identically seeded agent fresh slices: their updates must agree bit for bit,
// which they cannot if the ring keeps the caller's slices.
func TestObserveCopies(t *testing.T) {
	const dim = 23
	heads := []int{101, 3, 3, 3}
	reused := NewAgent(dim, heads, DefaultConfig(), xrand.New(15))
	fresh := NewAgent(dim, heads, DefaultConfig(), xrand.New(15))
	env := xrand.New(16)
	state, acts := make([]float64, dim), make([]int, len(heads))
	for _, s := range randStates(env, 100, dim) {
		tr := Transition{State: s, Acts: make([]int, len(heads)), OldLogP: -env.Float64(),
			Reward: env.Float64() - 0.5, Value: env.Float64(), NextValue: env.Float64()}
		for k, size := range heads {
			tr.Acts[k] = env.Intn(size)
		}
		fresh.Observe(tr)
		copy(state, tr.State)
		copy(acts, tr.Acts)
		tr.State, tr.Acts = state, acts
		reused.Observe(tr)
		for i := range state {
			state[i] = -1
		}
		clear(acts)
	}
	for range 20 {
		reused.Train()
		fresh.Train()
	}
	requireSameTensors(t, reused, fresh)
}

// totalAllocs counts the allocations of runs calls of f, as
// testing.AllocsPerRun does but without its integer division, so that one
// allocation more in a branch that only some calls take still shows. It
// counts three times after two warm-up calls (a call that alternates paths,
// like a window step that trains on every other tick, has then taken both)
// and returns the least count: the runtime, the race detector's especially,
// now and then allocates on its own account (refilling a cache a collection
// emptied, say), which lands in one count, while what the calls allocate
// lands in every one.
func totalAllocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	f()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

func TestTrainOnEmptyBufferIsSafe(t *testing.T) {
	a := NewAgent(2, []int{2}, DefaultConfig(), xrand.New(8))
	a.Train() // must not panic
	if a.Updates() != 0 {
		t.Fatal("empty train counted as update")
	}
}
