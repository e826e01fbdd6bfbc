package nn_test

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"harl/internal/nn"
	"harl/internal/rl"
	"harl/internal/xrand"
)

// agentLayers returns every dense layer of the agent — trunk, heads, critic —
// out of its unexported fields: rl has no use for an accessor of its own.
func agentLayers(a *rl.Agent) []*nn.Linear {
	v := reflect.ValueOf(a).Elem()
	trunk := (*nn.MLP)(v.FieldByName("trunk").UnsafePointer())
	critic := (*nn.MLP)(v.FieldByName("critic").UnsafePointer())
	heads := *(*[]*nn.Linear)(unsafe.Pointer(v.FieldByName("heads").UnsafeAddr()))
	return slices.Concat(trunk.Layers, heads, critic.Layers)
}

// TestTrainSequenceIdenticalAcrossKernels drives one agent of the GEMM-1024³
// dims (23 → 64 → 64, heads 101/3/3/3) through 64 rounds of Act, Observe and
// Tick — 29 PPO updates over a growing buffer, ragged last blocks included —
// once on the portable loops and once on the host's tiles and lanes, and
// compares every parameter and both Adam moments of every layer bit for bit —
// a hash of them after each round, themselves at the end: lanes on ≡ lanes off
// for a whole sequence of Trains, not only kernel by kernel.
func TestTrainSequenceIdenticalAcrossKernels(t *testing.T) {
	const rounds = 64
	run := func(impl string) (hashes [rounds]uint64, last []float64) {
		undo, ok := nn.UseKernel(impl)
		defer undo()
		if !ok {
			t.Skip("nn has no assembly on this host")
		}
		rng := xrand.New(77)
		agent := rl.NewAgent(23, []int{101, 3, 3, 3}, rl.DefaultConfig(), rng)
		state, next := make([]float64, 23), make([]float64, 23)
		for round := range hashes {
			for i := range state {
				state[i], next[i] = rng.Float64(), rng.Float64()
			}
			d := agent.Act(state)
			agent.Observe(rl.Transition{State: slices.Clone(state), Acts: d.Acts, OldLogP: d.LogProb,
				Reward: rng.Float64() - 0.5, Value: d.Value, NextValue: agent.Value(next)})
			agent.Tick()
			last = last[:0]
			for _, l := range agentLayers(agent) {
				last = append(append(append(last, l.P...), l.M...), l.V...)
			}
			hashes[round] = 14695981039346656037 // FNV-1a over the values' bits
			for _, v := range last {
				hashes[round] = (hashes[round] ^ math.Float64bits(v)) * 1099511628211
			}
		}
		if agent.Updates() < 25 {
			t.Fatalf("%d updates in %d rounds: the sequence trains too little to mean anything", agent.Updates(), rounds)
		}
		return hashes, last
	}
	wantHashes, want := run("portable")
	gotHashes, got := run("avx")
	for round, h := range wantHashes {
		if gotHashes[round] != h {
			t.Fatalf("the layers' P, M, V on the assembly leave those on the portable loops in round %d of %d", round, rounds)
		}
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("value %d of the layers' P, M, V ends as %v on the assembly, %v on the portable loops", i, got[i], w)
		}
	}
}
