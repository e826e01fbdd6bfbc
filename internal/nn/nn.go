// Package nn is the minimal neural-network substrate backing HARL's
// actor-critic models: dense layers with manual backpropagation, tanh
// activations, softmax/categorical utilities and the Adam optimizer (the
// original system uses PyTorch via the PPO-PyTorch reference implementation).
// PPO spends nearly all of a tuning session in these small MLPs, so every
// dense pass — forward, weight gradient, input gradient — is one call into a
// single register-blocked matrix–matrix micro-kernel, gemmNT, over a row-major
// block of samples.
//
// Accumulation-order contract: each output element of gemmNT has one
// accumulator, seeded from the destination and fed its products in ascending
// reduction index — inputs for the forward pass, samples in block order for
// the weight gradient, outputs for the input gradient. A loop over single
// samples adds in the same order, so results do not depend on how samples are
// grouped into blocks and are bit-identical to the retired per-sample kernels
// (kept in oracle_test.go for the equivalence tests).
package nn

import (
	"fmt"
	"math"

	"harl/internal/xrand"
)

// Linear is a dense layer y = Wx + b with accumulated gradients (GW, GB) and
// Adam moment state, all shaped like the parameter they belong to.
type Linear struct {
	In, Out int
	W, B    []float64 // W is row-major [Out][In]

	GW, GB []float64
	MW, VW []float64
	MB, VB []float64
}

// NewLinear creates a layer with Xavier-uniform initialized weights.
func NewLinear(in, out int, rng *xrand.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		W: make([]float64, in*out), B: make([]float64, out),
		GW: make([]float64, in*out), GB: make([]float64, out),
		MW: make([]float64, in*out), VW: make([]float64, in*out),
		MB: make([]float64, out), VB: make([]float64, out),
	}
	scale := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W {
		l.W[i] = (2*rng.Float64() - 1) * scale
	}
	return l
}

// gemmNT is the one dense kernel: c[i][j] += Σ_p a[i][p]·b[j][p] for row-major
// c (m×n), a (m×k) and b (n×k), bit-identical to the naive triple loop. The
// register block is two rows by three columns: six accumulators in flight, so
// the adds overlap instead of forming one latency-bound chain, on five loads
// per six multiply-adds. A last odd row is paired with itself (both lanes
// compute and store the same values).
func gemmNT(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i += 2 {
		// Re-slicing rows to len(a0) drops the reduction loops' bounds checks.
		i1 := min(i+1, m-1)
		a0, a1 := a[i*k:(i+1)*k], a[i1*k : (i1+1)*k][:k]
		c0, c1 := c[i*n:(i+1)*n], c[i1*n:(i1+1)*n]
		j := 0
		for ; j+3 <= n; j += 3 {
			b0 := b[j*k : (j+1)*k][:len(a0)]
			b1 := b[(j+1)*k : (j+2)*k][:len(a0)]
			b2 := b[(j+2)*k : (j+3)*k][:len(a0)]
			s00, s01, s02 := c0[j], c0[j+1], c0[j+2]
			s10, s11, s12 := c1[j], c1[j+1], c1[j+2]
			for p, x0 := range a0 {
				x1 := a1[p]
				y0, y1, y2 := b0[p], b1[p], b2[p]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
			}
			c0[j], c0[j+1], c0[j+2] = s00, s01, s02
			c1[j], c1[j+1], c1[j+2] = s10, s11, s12
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k][:len(a0)]
			s0, s1 := c0[j], c1[j]
			for p, x0 := range a0 {
				s0 += x0 * bj[p]
				s1 += a1[p] * bj[p]
			}
			c0[j], c1[j] = s0, s1
		}
	}
}

// transpose writes the rows×cols matrix src, whose rows start ld apart, into
// dst as row-major cols×rows — four source rows at a time, so each
// destination row receives four adjacent values per bounds check.
func transpose(dst, src []float64, rows, cols, ld int) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0 := src[r*ld : r*ld+cols]
		s1 := src[(r+1)*ld : (r+1)*ld+cols][:len(s0)]
		s2 := src[(r+2)*ld : (r+2)*ld+cols][:len(s0)]
		s3 := src[(r+3)*ld : (r+3)*ld+cols][:len(s0)]
		for c, v := range s0 {
			d := dst[c*rows+r : c*rows+r+4]
			d[0], d[1], d[2], d[3] = v, s1[c], s2[c], s3[c]
		}
	}
	for ; r < rows; r++ {
		for c, v := range src[r*ld : r*ld+cols] {
			dst[c*rows+r] = v
		}
	}
}

// ForwardBatch computes Y = X·Wᵀ + b for n samples: x is the row-major n×In
// input block, y the n×Out output block.
func (l *Linear) ForwardBatch(y, x []float64, n int) {
	if len(x) != n*l.In || len(y) != n*l.Out {
		panic(fmt.Sprintf("nn: Linear forward dims %d→%d != %d×(%d→%d)", len(x), len(y), n, l.In, l.Out))
	}
	for s := 0; s < n; s++ {
		copy(y[s*l.Out:], l.B)
	}
	gemmNT(y, x, l.W, n, l.Out, l.In)
}

// BackwardBatch accumulates the parameter gradients of n samples — GW += dYᵀ·X
// and GB += Σ dY, both in sample order — given the layer input block x (n×In)
// and the output-gradient block dy (n×Out). A non-nil dx also receives the
// input-gradient block dX = dY·W; a first layer, whose dX nobody consumes,
// passes nil. tmp is scratch of at least n·(In+Out) values for the transposed
// operands the kernel wants.
func (l *Linear) BackwardBatch(dx, x, dy []float64, n int, tmp []float64) {
	if len(x) != n*l.In || len(dy) != n*l.Out {
		panic(fmt.Sprintf("nn: Linear backward dims %d←%d != %d×(%d←%d)", len(x), len(dy), n, l.In, l.Out))
	}
	for s := 0; s < n; s++ {
		for o, g := range dy[s*l.Out : (s+1)*l.Out] {
			l.GB[o] += g
		}
	}
	xT, dyT := tmp[:len(x)], tmp[len(x):len(x)+len(dy)]
	transpose(xT, x, n, l.In, l.In)
	transpose(dyT, dy, n, l.Out, l.Out)
	gemmNT(l.GW, dyT, xT, l.Out, l.In, n)
	if dx == nil {
		return
	}
	// dX wants Wᵀ. Forming it n input columns at a time keeps that panel of
	// Wᵀ and its slab of dX inside tmp: no transposed copy of W is kept.
	for i0 := 0; i0 < l.In; i0 += n {
		w := min(n, l.In-i0)
		wT, part := tmp[:w*l.Out], tmp[w*l.Out:w*(l.Out+n)]
		transpose(wT, l.W[i0:], l.Out, w, l.In)
		clear(part)
		gemmNT(part, dy, wT, n, w, l.Out)
		for s := 0; s < n; s++ {
			copy(dx[s*l.In+i0:], part[s*w:(s+1)*w])
		}
	}
}

// Step applies one Adam update to every layer with its accumulated gradients
// (scaled by 1/batch) and clears them. t is the 1-based Adam timestep.
func Step(lr float64, batch, t int, layers ...*Linear) {
	for _, l := range layers {
		adam(l.W, l.GW, l.MW, l.VW, lr, batch, t)
		adam(l.B, l.GB, l.MB, l.VB, lr, batch, t)
	}
}

const adamBeta1, adamBeta2, adamEps = 0.9, 0.999, 1e-8

func adam(w, g, m, v []float64, lr float64, batch, t int) {
	inv := 1.0 / float64(batch)
	bc1 := 1 - math.Pow(adamBeta1, float64(t))
	bc2 := 1 - math.Pow(adamBeta2, float64(t))
	for i := range w {
		gi := g[i] * inv
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		w[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + adamEps)
		g[i] = 0
	}
}

// MLP is a stack of Linear layers with tanh activations between them (none
// after the last layer). Its batched passes run through the blocks of Reserve:
// an output block per layer and, for all but the first, an input-gradient one.
type MLP struct {
	Layers []*Linear

	acts, grads [][]float64
}

// NewMLP builds an MLP with the given layer sizes, e.g. (in, 64, 64, out).
func NewMLP(rng *xrand.RNG, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// Reserve allocates the network's blocks for passes of up to rows samples.
func (m *MLP) Reserve(rows int) {
	m.acts, m.grads = make([][]float64, len(m.Layers)), make([][]float64, len(m.Layers))
	for i, l := range m.Layers {
		m.acts[i] = make([]float64, rows*l.Out)
		if i > 0 {
			m.grads[i] = make([]float64, rows*l.In)
		}
	}
}

// ForwardBatch runs the n×In block x through the network and returns the
// n×Out output block, valid until the next ForwardBatch.
func (m *MLP) ForwardBatch(x []float64, n int) []float64 {
	for i, l := range m.Layers {
		y := m.acts[i][:n*l.Out]
		l.ForwardBatch(y, x, n)
		if i+1 < len(m.Layers) {
			for j, v := range y {
				y[j] = math.Tanh(v)
			}
		}
		x = y
	}
	return x
}

// BackwardBatch accumulates the parameter gradients for the output-gradient
// block dy (n×Out, mutated in place) of the preceding ForwardBatch call on
// input block x. tmp is Linear.BackwardBatch scratch for the widest layer.
func (m *MLP) BackwardBatch(x, dy []float64, n int, tmp []float64) {
	g := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		if i+1 < len(m.Layers) {
			// Layer i's stored output is tanh(z_i); d tanh = 1 - tanh².
			for j, act := range m.acts[i][:len(g)] {
				g[j] *= 1 - act*act
			}
		}
		in, dx := x, []float64(nil)
		if i > 0 {
			in, dx = m.acts[i-1][:n*l.In], m.grads[i][:n*l.In]
		}
		l.BackwardBatch(dx, in, g, n, tmp)
		g = dx
	}
}

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W) + len(l.B)
	}
	return n
}

// Softmax replaces the logits with their numerically stabilized softmax.
func Softmax(x []float64) {
	maxL := math.Inf(-1)
	for _, v := range x {
		maxL = max(maxL, v)
	}
	sum := 0.0
	for i, v := range x {
		x[i] = math.Exp(v - maxL)
		sum += x[i]
	}
	for i := range x {
		x[i] /= sum
	}
}

// SampleCategorical draws an index from the probability vector.
func SampleCategorical(probs []float64, rng *xrand.RNG) int {
	x := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(probs) - 1
}

// LogProb returns log p[a] clamped away from -inf.
func LogProb(probs []float64, a int) float64 {
	return math.Log(max(probs[a], 1e-12))
}

// LogProbGrad writes d log p[a] / d logits = onehot(a) - probs into dst
// (len(probs); it may be probs itself).
func LogProbGrad(dst, probs []float64, a int) {
	for i, p := range probs {
		dst[i] = -p
	}
	dst[a] += 1
}

// EntropyGrad writes d H / d logits = -p_i (log p_i + H) into dst (len(probs),
// not aliasing it), H being the Shannon entropy in nats. Probabilities at or
// below 1e-12 count as zero. Each log p_i is taken once, for H and gradient.
func EntropyGrad(dst, probs []float64) {
	h := 0.0
	for i, p := range probs {
		dst[i] = 0
		if p > 1e-12 {
			dst[i] = math.Log(p)
			h -= p * dst[i]
		}
	}
	for i, p := range probs {
		if p > 1e-12 {
			dst[i] = -p * (dst[i] + h)
		}
	}
}

// ArgMax returns the index of the largest value.
func ArgMax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
