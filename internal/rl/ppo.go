// Package rl implements the proximal-policy-optimization actor-critic used by
// HARL's parameter-modification level (paper Section 4.3 and Appendix A.1).
//
// The actor is a shared MLP trunk with one categorical head per modification
// subspace of Table 3 — tiling (num_iters² + 1 actions including the dummy),
// compute-at, parallel-loops and auto-unroll (3 actions each) — so one joint
// step selects a sub-action for every modification type, the dummy actions
// making modification-type selection implicit. The critic is a separate value
// MLP; its one-step temporal-difference error is the advantage function
// (Eq. 6) that both drives the policy gradient (Eq. 5) and feeds the
// adaptive-stopping module's track ranking.
//
// An Agent is driven by one goroutine. Its update trains the critic on a
// second one beside the actor: the two share no parameter, gradient or Adam
// moment, and the critic's half draws nothing from the RNG, so the result is
// bit-identical whichever half finishes first, at any GOMAXPROCS. Every pass
// runs in blocks of at most chunkRows samples through agent-owned scratch
// sized by the block, and the critic's pass is a method value bound once, so
// a warm update allocates nothing (on two procs the runtime's goroutine free
// lists first grow by a bounded ≈ 30 KB). The search queries the policy and
// the critic once per window step for all its live tracks (ActBatch,
// ValueBatch); Act and Value are the one-row case of the same code. The
// replay buffer is one pointer-free ring allocated with the agent, 8·stateDim
// + 4·heads + 32 bytes a row (232 at the GEMM-1024³ dims); Observe copies into
// it, and Decision.Acts is agent scratch, so a window step allocates nothing.
package rl

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"harl/internal/nn"
	"harl/internal/xrand"
)

// Config holds the PPO hyper-parameters; defaults are the paper's Table 5.
type Config struct {
	Hidden        int     // trunk / critic width
	LrActor       float64 // 3e-4
	LrCritic      float64 // 1e-3
	Gamma         float64 // discount factor, 0.9
	ClipEps       float64 // PPO clip range
	WMSE          float64 // critic MSE loss weight, 0.5
	WEntropy      float64 // entropy bonus weight, 0.01
	TrainInterval int     // T_rl: train every this many environment steps, 2
	MiniBatch     int     // samples per update
	Epochs        int     // passes per update
	BufferCap     int     // replay-buffer capacity
}

// DefaultConfig returns the paper's published parameters.
func DefaultConfig() Config {
	return Config{
		Hidden:        64,
		LrActor:       3e-4,
		LrCritic:      1e-3,
		Gamma:         0.9,
		ClipEps:       0.2,
		WMSE:          0.5,
		WEntropy:      0.01,
		TrainInterval: 2,
		MiniBatch:     64,
		Epochs:        2,
		BufferCap:     4096,
	}
}

// Decision is the outcome of one policy query.
type Decision struct {
	Acts    []int   // one sub-action index per head, valid until the agent's next Act or ActBatch
	LogProb float64 // joint log-probability of the sampled sub-actions
	Value   float64 // critic value of the state
}

// Transition is one recorded environment step (S, M, S', R, Y of Algorithm 1).
// Observe copies it, so the caller may reuse State and Acts afterwards.
type Transition struct {
	State     []float64
	Acts      []int
	OldLogP   float64
	Reward    float64
	Value     float64 // V(s) at collection time
	NextValue float64 // V(s') at collection time
}

// outcome is a transition's scalars: one 32-byte record of the replay ring.
type outcome struct{ oldLogP, reward, value, nextValue float64 }

// advantage returns the one-step TD advantage (Eq. 6) of the transition.
func (o *outcome) advantage(gamma float64) float64 { return o.reward + gamma*o.nextValue - o.value }

// chunkRows is the block height of every batched pass: larger batches run as
// consecutive blocks of at most this many rows, in sample order, which bounds
// the scratch whatever MiniBatch is and leaves results unchanged (see nn).
const chunkRows = 16

// Agent is a PPO actor-critic over a multi-head categorical action space.
type Agent struct {
	Cfg Config

	trunk  *nn.MLP
	heads  []*nn.Linear
	critic *nn.MLP

	// The replay ring of BufferCap rows, row i being states[i*stateDim:],
	// acts[i*heads:] and outcomes[i]: rows are filled, Observe writes row pos.
	states    []float64
	acts      []int32
	outcomes  []outcome
	rows, pos int

	steps   int
	adamT   int
	updates int
	rng     *xrand.RNG

	// Scratch for one block of at most chunkRows samples, allocated with the
	// agent: O(chunkRows × (stateDim + Hidden + Σheads)) with the networks'
	// own blocks. Every pass consumes the previous one's blocks before
	// overwriting them. During Train the critic's half owns the critic and
	// the crit* blocks, the actor's half everything else; both only read the
	// ring and picks. Forward passes take and give feature-major blocks
	// (nn.Linear.ForwardBatch); everything here is sample-major unless it
	// says otherwise.
	x       []float64   // a query block's states, stateDim×rows feature-major; a minibatch block's, rows×stateDim
	h       []float64   // the trunk activation, rows×Hidden
	probs   [][]float64 // per head, rows×size: logits, probabilities, then loss gradient
	dh      []float64   // gradient w.r.t. h, summed over heads
	headDx  []float64   // one head's input gradient
	perRow  []float64   // policy-gradient scale
	tmp     []float64   // feature-major staging: a minibatch block's states, then one head's logits; later one head's d H / d logits, sample-major
	picks   []int       // every epoch's minibatch sample indices, epoch-major
	decActs []int       // the last Act or ActBatch's Decision.Acts, grown to the widest call

	critX, critXT []float64 // the critic's minibatch block states, rows×stateDim and feature-major
	critDv        []float64 // the critic's output gradient
	criticPass    func()    // a.trainCritic, bound once so that go allocates nothing
	criticDone    sync.WaitGroup
}

// NewAgent builds an agent for the given state dimensionality and per-head
// action counts.
func NewAgent(stateDim int, headSizes []int, cfg Config, rng *xrand.RNG) *Agent {
	a := &Agent{
		Cfg:    cfg,
		trunk:  nn.NewMLP(rng, chunkRows, stateDim, cfg.Hidden, cfg.Hidden),
		critic: nn.NewMLP(rng, chunkRows, stateDim, cfg.Hidden, cfg.Hidden, 1),
		rng:    rng,
		probs:  make([][]float64, len(headSizes)),
	}
	a.states, a.acts, a.outcomes = make([]float64, cfg.BufferCap*stateDim), make([]int32, cfg.BufferCap*len(headSizes)), make([]outcome, cfg.BufferCap)
	staged := stateDim // the widest block tmp stages
	for k, hs := range headSizes {
		a.heads = append(a.heads, nn.NewLinear(cfg.Hidden, hs, rng))
		a.probs[k] = make([]float64, chunkRows*hs)
		staged = max(staged, hs)
	}
	a.x = make([]float64, chunkRows*stateDim)
	a.h, a.dh, a.headDx = make([]float64, chunkRows*cfg.Hidden), make([]float64, chunkRows*cfg.Hidden), make([]float64, chunkRows*cfg.Hidden)
	a.perRow = make([]float64, chunkRows)
	a.tmp = make([]float64, chunkRows*staged)
	a.critX, a.critXT, a.critDv = make([]float64, chunkRows*stateDim), make([]float64, chunkRows*stateDim), make([]float64, chunkRows)
	a.criticPass = a.trainCritic
	return a
}

// Updates returns the number of PPO updates performed so far.
func (a *Agent) Updates() int { return a.updates }

// dim returns the state dimensionality, having checked that x is a block of
// the given number of rows.
func (a *Agent) dim(x []float64, rows int) int {
	dim := a.trunk.Layers[0].In
	if len(x) != rows*dim {
		panic(fmt.Sprintf("rl: state block of %d values != %d×%d", len(x), rows, dim))
	}
	return dim
}

// forwardActor runs trunk and heads over the feature-major state block xT of n
// samples (which may be a.tmp: the heads overwrite it only after the trunk has
// read it) and returns the hidden activation block, feature-major; per-head
// probability blocks land in a.probs.
func (a *Agent) forwardActor(xT []float64, n int) []float64 {
	hT := a.trunk.ForwardBatch(xT, n)
	nn.Tanh(hT)
	for k, head := range a.heads {
		logitsT := a.tmp[:n*head.Out]
		head.ForwardBatch(logitsT, hT, n)
		nn.Transpose(a.probs[k][:n*head.Out], logitsT, head.Out, n)
		nn.Softmax(a.probs[k][:n*head.Out], head.Out)
	}
	return hT
}

// headProbs returns row r of head k's probability block.
func (a *Agent) headProbs(k, r int) []float64 {
	size := a.heads[k].Out
	return a.probs[k][r*size : (r+1)*size]
}

// ActBatch samples one joint action per row of the row-major state block x
// (len(decs)×stateDim) into decs, drawing from the agent's RNG in (state,
// head) order: decisions and RNG state afterwards equal len(decs) Act calls.
// The call's Acts are agent-owned scratch, valid until the next Act or
// ActBatch.
func (a *Agent) ActBatch(decs []Decision, x []float64) {
	dim, heads := a.dim(x, len(decs)), len(a.heads)
	a.decActs = slices.Grow(a.decActs[:0], len(decs)*heads)[:len(decs)*heads]
	acts := a.decActs
	for lo := 0; lo < len(decs); lo += chunkRows {
		n := min(chunkRows, len(decs)-lo)
		xT := a.x[:n*dim]
		nn.Transpose(xT, x[lo*dim:(lo+n)*dim], n, dim)
		a.forwardActor(xT, n)
		v := a.critic.ForwardBatch(xT, n) // one output: n×1 either way round
		for r := 0; r < n; r++ {
			d := Decision{Acts: acts[:heads:heads], Value: v[r]}
			acts = acts[heads:]
			for k := range a.heads {
				p := a.headProbs(k, r)
				d.Acts[k] = nn.SampleCategorical(p, a.rng)
				d.LogProb += nn.LogProb(p, d.Acts[k])
			}
			decs[lo+r] = d
		}
	}
}

// Act samples one joint action from the current policy.
func (a *Agent) Act(state []float64) Decision {
	var d [1]Decision
	a.ActBatch(d[:], state)
	return d[0]
}

// ValueBatch writes the critic's estimate V(s) of each row of the state block
// x (len(vals)×stateDim) into vals.
func (a *Agent) ValueBatch(vals, x []float64) {
	dim := a.dim(x, len(vals))
	for lo := 0; lo < len(vals); lo += chunkRows {
		n := min(chunkRows, len(vals)-lo)
		xT := a.x[:n*dim]
		nn.Transpose(xT, x[lo*dim:(lo+n)*dim], n, dim)
		copy(vals[lo:], a.critic.ForwardBatch(xT, n))
	}
}

// Value returns the critic's estimate V(s).
func (a *Agent) Value(state []float64) float64 { return a.critic.ForwardBatch(state, 1)[0] }

// Observe copies a transition into the replay ring.
func (a *Agent) Observe(t Transition) {
	dim, heads, i := a.dim(t.State, 1), len(a.heads), a.pos
	a.pos, a.rows = (i+1)%a.Cfg.BufferCap, min(a.rows+1, a.Cfg.BufferCap)
	copy(a.states[i*dim:(i+1)*dim], t.State)
	for k := range heads {
		a.acts[i*heads+k] = int32(t.Acts[k])
	}
	a.outcomes[i] = outcome{t.OldLogP, t.Reward, t.Value, t.NextValue}
}

// Tick advances the environment-step counter and trains when the paper's
// training interval T_rl elapses. It reports whether an update happened.
func (a *Agent) Tick() bool {
	a.steps++
	if a.steps%a.Cfg.TrainInterval != 0 || a.rows < 8 {
		return false
	}
	a.Train()
	return true
}

// Train performs one PPO update: Cfg.Epochs passes over minibatches sampled
// from the replay ring, with the clipped surrogate objective for the actor
// (Eq. 5), MSE-to-TD-target for the critic and an entropy bonus. Every
// epoch's minibatch is drawn up front (nothing else draws from the RNG in
// between), then the critic trains on a second goroutine while this one
// trains the actor; the one join is at the end. Gradients are zero on entry:
// every nn.Step clears what it consumed.
func (a *Agent) Train() {
	n := a.rows
	if n == 0 {
		return
	}
	batch, picks := min(a.Cfg.MiniBatch, n), a.picks[:0]
	for len(picks) < a.Cfg.Epochs*batch {
		picks = append(picks, a.rng.Intn(n))
	}
	a.picks = picks
	a.criticDone.Add(1)
	go a.criticPass()
	for ep := 0; ep < a.Cfg.Epochs; ep++ {
		// Normalize the minibatch's advantages (zero mean, unit std) — the
		// standard PPO variance-reduction step.
		mean, sq, picks := 0.0, 0.0, a.picks[ep*batch:(ep+1)*batch]
		for _, i := range picks {
			adv := a.outcomes[i].advantage(a.Cfg.Gamma)
			mean += adv
			sq += adv * adv
		}
		mean /= float64(batch)
		std := math.Sqrt(math.Max(sq/float64(batch)-mean*mean, 1e-12))
		for lo := 0; lo < batch; lo += chunkRows {
			a.accumulate(picks[lo:min(lo+chunkRows, batch)], mean, std)
		}
		nn.Step(a.Cfg.LrActor, batch, a.adamT+ep+1, a.trunk.Layers...)
		nn.Step(a.Cfg.LrActor, batch, a.adamT+ep+1, a.heads...)
	}
	a.criticDone.Wait()
	a.adamT += a.Cfg.Epochs
	a.updates++
}

// trainCritic is the critic's half of Train: w_mse·(V(s) − (r + γ·V_old(s')))²
// over every epoch's minibatch, block by block in sample order, then that
// epoch's Adam step.
func (a *Agent) trainCritic() {
	defer a.criticDone.Done()
	batch, dim := min(a.Cfg.MiniBatch, a.rows), a.trunk.Layers[0].In
	for ep := 0; ep < a.Cfg.Epochs; ep++ {
		epoch := a.picks[ep*batch : (ep+1)*batch]
		for lo := 0; lo < batch; lo += chunkRows {
			picks := epoch[lo:min(lo+chunkRows, batch)]
			n := len(picks)
			x, xT, dv := a.critX[:n*dim], a.critXT[:n*dim], a.critDv[:n]
			for r, i := range picks {
				copy(x[r*dim:], a.states[i*dim:(i+1)*dim])
			}
			nn.Transpose(xT, x, n, dim)
			v := a.critic.ForwardBatch(xT, n)
			for r, i := range picks {
				o := &a.outcomes[i]
				dv[r] = 2 * a.Cfg.WMSE * (v[r] - (o.reward + a.Cfg.Gamma*o.nextValue))
			}
			a.critic.BackwardBatch(x, dv, n)
		}
		nn.Step(a.Cfg.LrCritic, batch, a.adamT+ep+1, a.critic.Layers...)
	}
}

// accumulate adds the actor's gradient contribution of one block of the
// minibatch — the ring rows picks, in order — normalizing their
// advantages with the minibatch mean and std for the policy term: the
// clipped surrogate plus the entropy bonus.
func (a *Agent) accumulate(picks []int, mean, std float64) {
	n, dim, heads := len(picks), a.trunk.Layers[0].In, len(a.heads)
	x, xT := a.x[:n*dim], a.tmp[:n*dim]
	for r, i := range picks {
		copy(x[r*dim:], a.states[i*dim:(i+1)*dim])
	}
	nn.Transpose(xT, x, n, dim)
	hT, gradMul := a.forwardActor(xT, n), a.perRow
	h := a.h[:len(hT)] // sample-major, as the heads' weight gradients read it
	nn.Transpose(h, hT, len(hT)/n, n)
	for r, i := range picks {
		o := &a.outcomes[i]
		newLogP := 0.0
		for k := range a.heads {
			newLogP += nn.LogProb(a.headProbs(k, r), int(a.acts[i*heads+k]))
		}
		ratio := math.Exp(min(max(newLogP-o.oldLogP, -20), 20))
		// d(-min(r·A, clip(r)·A))/dlogπ = -A·r when the unclipped branch is
		// active, 0 when the clip saturates against improvement.
		adv := (o.advantage(a.Cfg.Gamma) - mean) / std
		gradMul[r] = 0
		if (adv >= 0 && ratio < 1+a.Cfg.ClipEps) || (adv < 0 && ratio > 1-a.Cfg.ClipEps) {
			gradMul[r] = -adv * ratio
		}
	}
	dh, headDx := a.dh[:len(h)], a.headDx[:len(h)]
	clear(dh)
	for k, head := range a.heads {
		// Each row of the head's probabilities becomes its loss gradient
		// w.r.t. the logits, in place; ent is the block's entropy gradient.
		ent := a.tmp[:n*head.Out]
		nn.EntropyGrad(ent, a.probs[k][:n*head.Out], head.Out)
		for r, i := range picks {
			row := a.headProbs(k, r)
			nn.LogProbGrad(row, row, int(a.acts[i*heads+k]))
			nn.Axmby(row, gradMul[r], ent[r*head.Out:], a.Cfg.WEntropy)
		}
		head.BackwardBatch(headDx, h, a.probs[k][:n*head.Out], n)
		nn.Add(dh, headDx)
	}
	nn.TanhGrad(dh, h) // through the trunk-output tanh
	a.trunk.BackwardBatch(x, dh, n)
}
