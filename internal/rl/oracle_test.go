package rl

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"harl/internal/nn"
	"harl/internal/xrand"
)

// The per-sample PPO update the batched Train replaced — one transition at a
// time through mat-vec forward/backward passes — kept, arithmetic and order
// untouched, as the reference the equivalence tests compare against bit for
// bit. It drives the same nn.Linear/nn.MLP values (gradients accumulate into
// their GW/GB, Adam is the production Step), so two identically seeded agents
// can be compared tensor by tensor.

// refForward computes y = Wx + b for one sample.
func refForward(l *nn.Linear, x []float64) []float64 {
	y := make([]float64, l.Out)
	for o := range y {
		s := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			s += float64(row[i] * xi) // rounded, as nn's kernel rounds it
		}
		y[o] = s
	}
	return y
}

// refBackward accumulates one sample's parameter gradients and returns dx.
func refBackward(l *nn.Linear, x, dy []float64) []float64 {
	dx := make([]float64, l.In)
	for o, g := range dy {
		l.GB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		gw := l.GW[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			gw[i] += float64(g * xi)
			dx[i] += float64(row[i] * g)
		}
	}
	return dx
}

// refMLPForward returns the network output and the input of every layer.
func refMLPForward(m *nn.MLP, x []float64) ([]float64, [][]float64) {
	var inputs [][]float64
	h := x
	for i, l := range m.Layers {
		inputs = append(inputs, h)
		h = refForward(l, h)
		if i+1 < len(m.Layers) {
			for j := range h {
				h[j] = math.Tanh(h[j])
			}
		}
	}
	return h, inputs
}

func refMLPBackward(m *nn.MLP, inputs [][]float64, dy []float64) {
	g := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if i < len(m.Layers)-1 {
			act := inputs[i+1]
			for j := range g {
				g[j] *= 1 - act[j]*act[j]
			}
		}
		g = refBackward(m.Layers[i], inputs[i], g)
	}
}

// refProbs is the per-sample actor forward pass.
func (a *Agent) refProbs(state []float64) ([]float64, [][]float64, [][]float64) {
	z, inputs := refMLPForward(a.trunk, state)
	h := make([]float64, len(z))
	for i, v := range z {
		h[i] = math.Tanh(v)
	}
	probs := make([][]float64, len(a.heads))
	for k, head := range a.heads {
		probs[k] = refForward(head, h)
		nn.Softmax(probs[k], len(probs[k]))
	}
	return h, inputs, probs
}

// refAct and refValue are the retired per-sample Act and Value.
func (a *Agent) refAct(state []float64) Decision {
	_, _, probs := a.refProbs(state)
	d := Decision{Acts: make([]int, len(probs))}
	for k, p := range probs {
		d.Acts[k] = nn.SampleCategorical(p, a.rng)
		d.LogProb += nn.LogProb(p, d.Acts[k])
	}
	d.Value = a.refValue(state)
	return d
}

func (a *Agent) refValue(state []float64) float64 {
	v, _ := refMLPForward(a.critic, state)
	return v[0]
}

// refAccumulate is the retired Agent.accumulate: the gradient contribution of
// one transition, adv being its batch-normalized advantage.
func (a *Agent) refAccumulate(t Transition, adv float64) {
	target := t.Reward + a.Cfg.Gamma*t.NextValue
	v, vin := refMLPForward(a.critic, t.State)
	refMLPBackward(a.critic, vin, []float64{2 * a.Cfg.WMSE * (v[0] - target)})

	h, inputs, probs := a.refProbs(t.State)
	newLogP := 0.0
	for k, p := range probs {
		newLogP += nn.LogProb(p, t.Acts[k])
	}
	ratio := math.Exp(clampF(newLogP-t.OldLogP, -20, 20))
	gradScale := 0.0
	if adv >= 0 && ratio < 1+a.Cfg.ClipEps {
		gradScale = -adv * ratio
	} else if adv < 0 && ratio > 1-a.Cfg.ClipEps {
		gradScale = -adv * ratio
	}
	dh := make([]float64, len(h))
	for k, head := range a.heads {
		dlogits := make([]float64, len(probs[k]))
		nn.LogProbGrad(dlogits, probs[k], t.Acts[k])
		// The retired entropy gradient took log p twice: once for H, once here.
		ent := 0.0
		for _, p := range probs[k] {
			if p > 1e-12 {
				ent -= p * math.Log(p)
			}
		}
		for i, p := range probs[k] {
			dEnt := 0.0
			if p > 1e-12 {
				dEnt = -p * (math.Log(p) + ent)
			}
			dlogits[i] = gradScale*dlogits[i] - a.Cfg.WEntropy*dEnt
		}
		for i, g := range refBackward(head, h, dlogits) {
			dh[i] += g
		}
	}
	for i := range dh {
		dh[i] *= 1 - h[i]*h[i]
	}
	refMLPBackward(a.trunk, inputs, dh)
}

// refAgent is an Agent beside the retired replay buffer, a ring of the
// observed transitions themselves, which refTrain reads. It never reads the
// agent's own ring, so a row-index or wrap-around bug there shows as a
// mismatch.
type refAgent struct {
	*Agent
	buf []Transition
	pos int
}

// observe is the retired Agent.Observe.
func (a *refAgent) observe(t Transition) {
	if len(a.buf) < a.Cfg.BufferCap {
		a.buf = append(a.buf, t)
		return
	}
	a.buf[a.pos] = t
	a.pos = (a.pos + 1) % a.Cfg.BufferCap
}

// refTrain is the retired Agent.Train: the same sampling, normalization and
// Adam steps around per-sample accumulation.
func (a *refAgent) refTrain() {
	n := len(a.buf)
	batch := min(a.Cfg.MiniBatch, n)
	picks, advs := make([]int, batch), make([]float64, batch)
	for ep := 0; ep < a.Cfg.Epochs; ep++ {
		mean, sq := 0.0, 0.0
		for b := range picks {
			picks[b] = a.rng.Intn(n)
			t := a.buf[picks[b]]
			advs[b] = t.Reward + a.Cfg.Gamma*t.NextValue - t.Value
			mean += advs[b]
			sq += advs[b] * advs[b]
		}
		mean /= float64(batch)
		std := math.Sqrt(math.Max(sq/float64(batch)-mean*mean, 1e-12))
		for b, i := range picks {
			a.refAccumulate(a.buf[i], (advs[b]-mean)/std)
		}
		a.adamT++
		nn.Step(a.Cfg.LrActor, batch, a.adamT, a.layers()[:len(a.heads)+2]...)
		nn.Step(a.Cfg.LrCritic, batch, a.adamT, a.critic.Layers...)
	}
	a.updates++
}

// tensors lists a layer's parameters, gradients and Adam moments: its whole
// training state.
func tensors(l *nn.Linear) [][]float64 {
	return [][]float64{l.P, l.G, l.M, l.V}
}

// layers lists every dense layer of the agent, the actor's first.
func (a *Agent) layers() []*nn.Linear {
	ls := append([]*nn.Linear(nil), a.trunk.Layers...)
	ls = append(ls, a.heads...)
	return append(ls, a.critic.Layers...)
}

// requireSameTensors fails unless the two agents' weights, gradients and Adam
// moments are bit-identical.
func requireSameTensors(t *testing.T, got, want *Agent) {
	t.Helper()
	wl := want.layers()
	for li, l := range got.layers() {
		wt := tensors(wl[li])
		for ti, ts := range tensors(l) {
			for i := range ts {
				if math.Float64bits(ts[i]) != math.Float64bits(wt[ti][i]) {
					t.Fatalf("layer %d tensor %d [%d] = %v want %v", li, ti, i, ts[i], wt[ti][i])
				}
			}
		}
	}
}

// randStates returns n random state vectors of the given dimension.
func randStates(rng *xrand.RNG, n, dim int) [][]float64 {
	states := make([][]float64, n)
	for i := range states {
		states[i] = make([]float64, dim)
		for j := range states[i] {
			states[i][j] = rng.Float64()
		}
	}
	return states
}

// TestTrainMatchesPerSampleOracle runs 50 batched updates beside 50 per-sample
// ones from identical seeds and requires every weight, gradient and Adam
// moment to agree bit for bit — at the benchmark's dims and bench_test.go's,
// with replay buffers shorter than MiniBatch and not a multiple of the block
// height (duplicate picks are then certain), and with a wrapped ring buffer.
// Every case runs at GOMAXPROCS 1, where Train's critic half runs after the
// actor's, and at GOMAXPROCS 2, where the two halves overlap.
func TestTrainMatchesPerSampleOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), trainMatchesPerSampleOracle)
	}
}

func trainMatchesPerSampleOracle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		stateDim  int
		heads     []int
		bufferCap int
		observe   int
	}{
		{"benchmark dims, 8 rows", 23, []int{101, 3, 3, 3}, 4096, 8},
		{"benchmark dims, 37 rows", 23, []int{101, 3, 3, 3}, 4096, 37},
		{"bench_test dims, 63 rows", 24, []int{197, 3, 3, 3}, 4096, 63},
		{"bench_test dims, full minibatch", 24, []int{197, 3, 3, 3}, 4096, 300},
		{"wrapped ring", 23, []int{101, 3, 3, 3}, 100, 257},
	} {
		cfg := DefaultConfig()
		cfg.BufferCap = tc.bufferCap
		got := NewAgent(tc.stateDim, tc.heads, cfg, xrand.New(31))
		want := &refAgent{Agent: NewAgent(tc.stateDim, tc.heads, cfg, xrand.New(31))}
		env := xrand.New(32)
		for i, s := range randStates(env, tc.observe, tc.stateDim) {
			d := want.refAct(s)
			tr := Transition{State: s, Acts: d.Acts, OldLogP: d.LogProb - 0.3*env.Float64(),
				Reward: env.Float64() - 0.5, Value: d.Value, NextValue: want.refValue(s) + float64(i%3)}
			want.observe(tr)
			got.Act(s) // keep the two RNG streams aligned
			got.Observe(tr)
		}
		for u := 0; u < 50; u++ {
			got.Train()
			want.refTrain()
		}
		requireSameTensors(t, got, want.Agent)
		if got.rng.Uint64() != want.rng.Uint64() {
			t.Fatalf("%s: agent RNG streams diverged", tc.name)
		}
	}
}

// TestBatchQueriesMatchPerSampleOracle pins ActBatch/ValueBatch — and Act/Value,
// their n = 1 form — to the retired per-sample queries: same Acts, LogProb and
// Value bits, and the same agent-RNG state afterwards.
func TestBatchQueriesMatchPerSampleOracle(t *testing.T) {
	got := NewAgent(23, []int{101, 3, 3, 3}, DefaultConfig(), xrand.New(41))
	want := NewAgent(23, []int{101, 3, 3, 3}, DefaultConfig(), xrand.New(41))
	for _, n := range []int{1, 16, 32, 37} {
		states := randStates(xrand.New(uint64(n)), n, 23)
		decs, vals := make([]Decision, n), make([]float64, n)
		var x []float64
		for _, s := range states {
			x = append(x, s...)
		}
		got.ActBatch(decs, x)
		got.ValueBatch(vals, x)
		for i, s := range states {
			d := want.refAct(s)
			if math.Float64bits(decs[i].LogProb) != math.Float64bits(d.LogProb) ||
				math.Float64bits(decs[i].Value) != math.Float64bits(d.Value) ||
				math.Float64bits(vals[i]) != math.Float64bits(d.Value) {
				t.Fatalf("n=%d state %d: got %+v / %v want %+v", n, i, decs[i], vals[i], d)
			}
			for k := range d.Acts {
				if decs[i].Acts[k] != d.Acts[k] {
					t.Fatalf("n=%d state %d: acts %v want %v", n, i, decs[i].Acts, d.Acts)
				}
			}
		}
		one, ref := got.Act(states[0]), want.refAct(states[0])
		if math.Float64bits(one.LogProb) != math.Float64bits(ref.LogProb) || got.Value(states[0]) != ref.Value {
			t.Fatalf("n=%d: Act %+v want %+v", n, one, ref)
		}
		if got.rng.Uint64() != want.rng.Uint64() {
			t.Fatalf("n=%d: agent RNG streams diverged", n)
		}
	}
}

// clampF is the retired clamp the batched path spells min(max(x, lo), hi).
func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
