// Package nn is the minimal neural-network substrate backing HARL's
// actor-critic models: dense layers with manual backpropagation, tanh
// activations, softmax/categorical utilities and the Adam optimizer (the
// original system uses PyTorch via the PPO-PyTorch reference implementation).
// PPO spends nearly all of a tuning session in these small MLPs, so every
// dense pass is one call into a single matrix kernel, gemm.
//
// The kernel's contract: c[i][j] += Σ_p a[i][p]·b[p][j] with one accumulator
// per element, seeded from c and fed its products in ascending p, each product
// rounded before it is added. A loop over single samples adds in the same
// order, so results do not depend on how samples are grouped into blocks and
// are bit-identical to the retired per-sample kernels (oracle_test.go). a is
// only ever read a scalar at a time, so it may be strided, and with W as stored
// ([Out][In]) the three passes of a layer transpose no operand: GW += dYᵀ·X
// reads dY down its columns (p runs over samples), dX = dY·W has W for b (p
// over outputs), and the forward is feature-major, Yᵀ = W·Xᵀ seeded with the
// bias (p over inputs, a column per sample) — activations change layout, once
// each, between the two directions.
//
// Two implementations share the contract: a portable Go loop, which is its
// specification, and — chosen once, at init, by CPUID and XGETBV — 256-bit AVX
// tiles on amd64 whose lanes are adjacent columns j. A lane is then one whole
// accumulator: VMULPD and VADDPD round it as MULSD and ADDSD round a scalar, in
// the same order, hence the same bits; a fused multiply-add rounds once where
// these round twice, so neither implementation has one (no VFMADD; explicit
// float64 conversions in Go). The committed journal and checkpoint pins are
// amd64 pins all the same: the rest of the arithmetic here (Adam, the entropy
// gradient) is plain x*y + z, which the compiler may fuse on arm64, ppc64le,
// s390x and riscv64.
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

// gemmTiles is gemm in assembly for blocks of n8 columns, a multiple of 8, and
// m, k ≥ 1; nil where there is none (only gemm_amd64.go's init sets it).
var gemmTiles func(c *float64, ldc int, a *float64, ars, acs int, b *float64, ldb, m, n8, k int)

// gemm is the package comment's kernel: c[i·ldc+j] += Σ_p a[i·ars+p·acs]·b[p·ldb+j]
// for i < m, j < n, p < k. Rows of b and c are contiguous, ldb and ldc ≥ n
// apart; no stride is negative; c overlaps neither operand. The leading n&^7
// columns go to gemmTiles where there are any; the rest, and everything
// elsewhere, to the portable loop below it.
func gemm(c []float64, ldc int, a []float64, ars, acs int, b []float64, ldb, m, n, k int) {
	// The tiles check nothing: only sound strides reach them, and with those
	// every element lies before the far corners indexed first.
	if n8 := n &^ 7; gemmTiles != nil && n8 > 0 && min(m, k) > 0 && min(ars, acs, ldc-n, ldb-n) >= 0 {
		_, _, _ = c[(m-1)*ldc+n8-1], a[(m-1)*ars+(k-1)*acs], b[(k-1)*ldb+n8-1]
		gemmTiles(&c[0], ldc, &a[0], ars, acs, &b[0], ldb, m, n8, k)
		if n -= n8; n == 0 {
			return
		}
		c, b = c[n8:], b[n8:]
	}
	var col [128]float64
	if acs == 1 && 0 < k && k <= len(col) {
		// Dot products (forward, input gradient): a column of b, gathered
		// into col, against four unit-stride rows of a — four chains in
		// flight. A last group short of four rows repeats its final row.
		x := col[:k]
		for j := 0; j < n; j++ {
			for p := range x {
				x[p] = b[p*ldb+j]
			}
			for i := 0; i < m; i += 4 {
				i1, i2, i3 := min(i+1, m-1), min(i+2, m-1), min(i+3, m-1)
				s0, s1, s2, s3 := c[i*ldc+j], c[i1*ldc+j], c[i2*ldc+j], c[i3*ldc+j]
				a0, a1 := a[i*ars:][:len(x)], a[i1*ars:][:len(x)]
				a2, a3 := a[i2*ars:][:len(x)], a[i3*ars:][:len(x)]
				for p, y := range x {
					s0 += float64(a0[p] * y)
					s1 += float64(a1[p] * y)
					s2 += float64(a2[p] * y)
					s3 += float64(a3[p] * y)
				}
				c[i*ldc+j], c[i1*ldc+j], c[i2*ldc+j], c[i3*ldc+j] = s0, s1, s2, s3
			}
		}
		return
	}
	// Row updates (weight gradient, and any longer reduction): c[i] +=
	// a[i][p]·b[p] over whole contiguous rows, four p to a sweep; a's strides
	// stay out of the inner loop.
	for i := 0; i < m; i++ {
		ci, ai := c[i*ldc:i*ldc+n], a[i*ars:]
		p := 0
		for ; p+4 <= k; p += 4 {
			x0, x1, x2, x3 := ai[p*acs], ai[(p+1)*acs], ai[(p+2)*acs], ai[(p+3)*acs]
			b0 := b[p*ldb : p*ldb+n][:len(ci)]
			b1 := b[(p+1)*ldb : (p+1)*ldb+n][:len(ci)]
			b2 := b[(p+2)*ldb : (p+2)*ldb+n][:len(ci)]
			b3 := b[(p+3)*ldb : (p+3)*ldb+n][:len(ci)]
			for j, s := range ci {
				ci[j] = s + float64(x0*b0[j]) + float64(x1*b1[j]) + float64(x2*b2[j]) + float64(x3*b3[j])
			}
		}
		for ; p < k; p++ {
			x0, b0 := ai[p*acs], b[p*ldb : p*ldb+n][:len(ci)]
			for j, s := range ci {
				ci[j] = s + float64(x0*b0[j])
			}
		}
	}
}

// Transpose writes the row-major rows×cols matrix src into dst as row-major
// cols×rows: a sample-major block (a row per sample) becomes feature-major (a
// row per feature) and back.
func Transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// ForwardBatch computes Yᵀ = W·Xᵀ + b for n samples, feature-major on both
// sides: xT is the In×n input block, yT the Out×n output block. One sample's
// block is the same vector either way round.
func (l *Linear) ForwardBatch(yT, xT []float64, n int) {
	if len(xT) != n*l.In || len(yT) != n*l.Out {
		panic(fmt.Sprintf("nn: Linear forward dims %d→%d != %d×(%d→%d)", len(xT), len(yT), n, l.In, l.Out))
	}
	for o, bias := range l.B {
		row := yT[o*n : (o+1)*n]
		for s := range row {
			row[s] = bias
		}
	}
	gemm(yT, n, l.W, l.In, 1, xT, n, l.Out, n, l.In)
}

// BackwardBatch accumulates the parameter gradients of n samples — GW += dYᵀ·X
// and GB += Σ dY, both in sample order — given the layer input block x (n×In)
// and the output-gradient block dy (n×Out), both sample-major. A non-nil dx
// also receives the input-gradient block dX = dY·W; a first layer, whose dX
// nobody consumes, passes nil. dYᵀ is dy read down its columns and W is used
// as stored: nothing is transposed.
func (l *Linear) BackwardBatch(dx, x, dy []float64, n int) {
	if len(x) != n*l.In || len(dy) != n*l.Out {
		panic(fmt.Sprintf("nn: Linear backward dims %d←%d != %d×(%d←%d)", len(x), len(dy), n, l.In, l.Out))
	}
	for s := 0; s < n; s++ {
		for o, g := range dy[s*l.Out : (s+1)*l.Out] {
			l.GB[o] += g
		}
	}
	gemm(l.GW, l.In, dy, 1, l.Out, x, l.In, l.Out, l.In, n)
	if dx != nil {
		clear(dx[:len(x)])
		gemm(dx, l.In, dy, l.Out, 1, l.W, l.In, n, l.In, l.Out)
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
// after the last layer). Its batched passes run through its own blocks: an
// output block per layer and, for all but the first, an input-gradient one.
type MLP struct {
	Layers []*Linear

	acts, grads [][]float64
}

// NewMLP builds an MLP with the given layer sizes, e.g. (in, 64, 64, out), and
// its blocks for passes of up to rows samples.
func NewMLP(rng *xrand.RNG, rows int, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{acts: make([][]float64, len(sizes)-1), grads: make([][]float64, len(sizes)-1)}
	for i := range m.acts {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
		m.acts[i] = make([]float64, rows*sizes[i+1])
		if i > 0 {
			m.grads[i] = make([]float64, rows*sizes[i])
		}
	}
	return m
}

// ForwardBatch runs the feature-major In×n block xT through the network and
// returns the feature-major Out×n output block, valid until the next
// ForwardBatch. A hidden layer's activation is computed feature-major in the
// next layer's input-gradient block, idle until BackwardBatch, and left
// sample-major in acts, the layout BackwardBatch reads it in.
func (m *MLP) ForwardBatch(xT []float64, n int) []float64 {
	last := len(m.Layers) - 1
	for i, l := range m.Layers[:last] {
		yT := m.grads[i+1][:n*l.Out]
		l.ForwardBatch(yT, xT, n)
		for j, v := range yT {
			yT[j] = math.Tanh(v)
		}
		Transpose(m.acts[i][:n*l.Out], yT, l.Out, n)
		xT = yT
	}
	yT := m.acts[last][:n*m.Layers[last].Out]
	m.Layers[last].ForwardBatch(yT, xT, n)
	return yT
}

// BackwardBatch accumulates the parameter gradients for the sample-major
// output-gradient block dy (n×Out, mutated in place) of the preceding
// ForwardBatch call, whose input was the transpose of the sample-major block x.
func (m *MLP) BackwardBatch(x, dy []float64, n int) {
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
		l.BackwardBatch(dx, in, g, n)
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
