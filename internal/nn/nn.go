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
// float64 conversions in Go). No flag, option, environment variable or build
// tag selects an implementation: Linear, MLP and rl have one data flow and
// never ask which one runs.
//
// The element-wise loops — Adam, the exp under Softmax, the log under
// EntropyGrad, tanh — have lanes on the same terms. Their specification is the
// scalar Go loop and the math call in it, all that runs elsewhere; on amd64
// with AVX2 and FMA, lanes_amd64.s does to four elements what that scalar does
// to one: Adam's IEEE-exact operations in its order, math's own exp_amd64.s,
// log_amd64.s and pure-Go tanh instruction for instruction. math.Exp is on its
// FMA path exactly when the CPU has AVX and FMA, hence on every host that has
// lanes, so one transcription matches it. A kernel stops at the first group
// with an element outside its domain (exp: finite |x| ≤ 700; log: positive,
// normal, finite; tanh: not NaN); the rest of the block, like a tail short of
// four, goes through the math call. tanh's lanes run math.tanh's small branch
// on all four and the exp of its large one only in a group with some |x| ≥ 0.625:
// the comparison that sorts the group is the one the blend picks lanes by, so
// the exp skipped is the exp the blend discarded.
//
// The loops between those kernels have lanes too — the bias seed of a forward
// block, Add (bias and head-input gradients), TanhGrad, Axmby, Softmax's x - max
// and x / sum — an element to a lane, its operations those of the scalar loop at
// the call site in that loop's order, none fused; Transpose moves 4×4 register
// blocks. A sum down a row (Softmax's, the entropy) stays a scalar chain: lanes
// would reorder it.
//
// The committed journal and checkpoint pins are pins of amd64 at the default
// GOAMD64 on an FMA-capable host all the same: math.Exp rounds differently
// without FMA, and the rest of the arithmetic here (Adam, the entropy gradient,
// math.tanh) is plain x*y + z, which the compiler may fuse under GOAMD64=v3
// and on arm64, ppc64le, s390x and riscv64.
package nn

import (
	"fmt"
	"math"

	"harl/internal/xrand"
)

// Linear is a dense layer y = Wx + b. Its parameters, their accumulated
// gradients and each Adam moment are one block apiece, W's part then B's, so an
// optimizer step is one pass over a layer.
type Linear struct {
	In, Out    int
	W, B       []float64 // views of P; W is row-major [Out][In]
	GW, GB     []float64 // views of G
	P, G, M, V []float64
}

// NewLinear creates a layer with Xavier-uniform initialized weights.
func NewLinear(in, out int, rng *xrand.RNG) *Linear {
	nw, n := in*out, in*out+out
	l := &Linear{In: in, Out: out, P: make([]float64, n), G: make([]float64, n), M: make([]float64, n), V: make([]float64, n)}
	l.W, l.B, l.GW, l.GB = l.P[:nw:nw], l.P[nw:], l.G[:nw:nw], l.G[nw:]
	scale := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W {
		l.W[i] = (2*rng.Float64() - 1) * scale
	}
	return l
}

// gemmTiles is gemm in assembly for m, n, k ≥ 1; nil where there is none (only
// gemm_amd64.go's init sets it).
var gemmTiles func(c *float64, ldc int, a *float64, ars, acs int, b *float64, ldb, m, n, k int)

// gemm is the package comment's kernel: c[i·ldc+j] += Σ_p a[i·ars+p·acs]·b[p·ldb+j]
// for i < m, j < n, p < k. Rows of b and c are contiguous, ldb and ldc ≥ n
// apart; no stride is negative; c overlaps neither operand. A block goes to
// gemmTiles where there are any, unless it is one or two columns wide: the dot
// products of the portable loop below beat a mostly masked tile at those.
func gemm(c []float64, ldc int, a []float64, ars, acs int, b []float64, ldb, m, n, k int) {
	// The tiles check nothing: only sound strides reach them, and with those
	// every element lies before the far corners indexed first.
	if gemmTiles != nil && n > 2 && min(m, k) > 0 && min(ars, acs, ldc-n, ldb-n) >= 0 {
		_, _, _ = c[(m-1)*ldc+n-1], a[(m-1)*ars+(k-1)*acs], b[(k-1)*ldb+n-1]
		gemmTiles(&c[0], ldc, &a[0], ars, acs, &b[0], ldb, m, n, k)
		return
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
	dst, src, r4, c4 := dst[:rows*cols], src[:rows*cols], 0, 0
	if lanes.transpose != nil && min(rows, cols) >= 4 {
		r4, c4 = rows&^3, cols&^3 // the corner of whole 4×4 blocks
		lanes.transpose(&dst[0], &src[0], rows, cols)
	}
	for r := 0; r < rows; r++ {
		c := 0
		if r < r4 {
			c = c4
		}
		for ; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
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
	n4 := 0
	if lanes.fillRows != nil && n >= 4 && l.Out > 0 {
		n4 = n &^ 3
		lanes.fillRows(&yT[0], &l.B[0], l.Out, n)
	}
	for o, bias := range l.B {
		row := yT[o*n+n4 : (o+1)*n]
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
		Add(l.GB, dy[s*l.Out:(s+1)*l.Out])
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
		adam(l.P, l.G, l.M, l.V, lr, batch, t)
	}
}

const adamBeta1, adamBeta2, adamEps = 0.9, 0.999, 1e-8

// lanes are the element-wise loops in assembly, four elements to a group; nil
// where there is none (only gemm_amd64.go's init sets them). exp, log and tanh
// put the math call's result over each x[i], stop before a group holding an
// element outside their domain and return the number of groups done.
var lanes struct {
	adam           func(w, g, m, v *float64, n int, inv, bc1, bc2, lr float64)
	exp, log, tanh func(x *float64, groups int) int
	rowOp          func(op int, x, y *float64, n int, a, b float64)
	// Of a rows×cols block these take the whole groups of four columns —
	// transpose, of rows as well — and leave the ragged edge to the Go loop.
	fillRows, transpose func(dst, src *float64, rows, cols int)
}

func adam(w, g, m, v []float64, lr float64, batch, t int) {
	inv := 1.0 / float64(batch)
	bc1 := 1 - math.Pow(adamBeta1, float64(t))
	bc2 := 1 - math.Pow(adamBeta2, float64(t))
	g, m, v, i := g[:len(w)], m[:len(w)], v[:len(w)], 0
	if lanes.adam != nil && len(w) >= 4 {
		i = len(w) &^ 3
		lanes.adam(&w[0], &g[0], &m[0], &v[0], i, inv, bc1, bc2, lr)
	}
	for ; i < len(w); i++ {
		gi := g[i] * inv
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		w[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + adamEps)
		g[i] = 0
	}
}

// apply replaces every x[i] with f(x[i]): kernel, f's lanes or nil, takes groups
// of four until one holds an element outside its domain, f the rest and the tail.
func apply(x []float64, kernel func(*float64, int) int, f func(float64) float64) {
	if kernel != nil && len(x) >= 4 {
		x = x[4*kernel(&x[0], len(x)/4):]
	}
	for i, v := range x {
		x[i] = f(v)
	}
}

// Tanh replaces every element of x with its hyperbolic tangent.
func Tanh(x []float64) { apply(x, lanes.tanh, math.Tanh) }

// lanes.rowOp's operations on an element x, given y's and the scalars a and b.
const (
	opSub      = iota // x -= a
	opDiv             // x /= a
	opAxmby           // x = a·x - b·y
	opTanhGrad        // x *= 1 - y·y
	opAdd             // x += y
)

// head runs op in lanes over the whole groups of four at the front of x, where
// there are lanes, and returns the number of elements done: the scalar loop that
// follows the call specifies op and takes the rest.
func head(op int, x, y []float64, a, b float64) int {
	if lanes.rowOp == nil || len(x) < 4 {
		return 0
	}
	_ = y[len(x)-1]
	lanes.rowOp(op, &x[0], &y[0], len(x)&^3, a, b)
	return len(x) &^ 3
}

// TanhGrad takes the gradient g with respect to act = tanh(z) to the gradient
// with respect to z, in place: d tanh = 1 - tanh².
func TanhGrad(g, act []float64) {
	for i := head(opTanhGrad, g, act, 0, 0); i < len(g); i++ {
		g[i] *= 1 - act[i]*act[i]
	}
}

// Add adds src to dst element by element.
func Add(dst, src []float64) {
	for i := head(opAdd, dst, src, 0, 0); i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// Axmby replaces every x[i] with a·x[i] - b·y[i], each product rounded.
func Axmby(x []float64, a float64, y []float64, b float64) {
	for i := head(opAxmby, x, y, a, b); i < len(x); i++ {
		x[i] = a*x[i] - b*y[i]
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
		Tanh(yT)
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
			TanhGrad(g, m.acts[i]) // layer i's stored output is tanh(z_i)
		}
		in, dx := x, []float64(nil)
		if i > 0 {
			in, dx = m.acts[i-1][:n*l.In], m.grads[i][:n*l.In]
		}
		l.BackwardBatch(dx, in, g, n)
		g = dx
	}
}

// Softmax replaces each row of size logits in the block x with its stabilized
// softmax; the exponentials are taken block-wide, so narrow rows fill lanes.
func Softmax(x []float64, size int) {
	for r := 0; r < len(x); r += size {
		row := x[r : r+size]
		maxL := rowMax(row)
		for i := head(opSub, row, row, maxL, 0); i < size; i++ {
			row[i] -= maxL
		}
	}
	apply(x, lanes.exp, math.Exp)
	for r := 0; r < len(x); r += size {
		row, sum := x[r:r+size], 0.0
		for _, v := range row {
			sum += v
		}
		for i := head(opDiv, row, row, sum, 0); i < size; i++ {
			row[i] /= sum
		}
	}
}

// rowMax is slices.Max(x), len(x) ≥ 1, as four independent chains of the builtin
// max: a NaN anywhere still comes out NaN and a +0 still beats a -0 whatever the
// order, so the grouping moves nothing, and unlike a chain of plain comparisons
// it has no branch for a row's running maxima to mispredict.
func rowMax(x []float64) float64 {
	m0, m1, m2, m3 := x[0], x[0], x[0], x[0]
	for ; len(x) >= 4; x = x[4:] {
		m0, m1, m2, m3 = max(m0, x[0]), max(m1, x[1]), max(m2, x[2]), max(m3, x[3])
	}
	for _, v := range x {
		m0 = max(m0, v)
	}
	return max(m0, m1, m2, m3)
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

// EntropyGrad writes, for each row of size probabilities in the block probs,
// d H / d logits = -p_i (log p_i + H) into the same row of dst (len(probs), not
// aliasing it), H being the row's Shannon entropy in nats. Probabilities at or
// below 1e-12 count as zero. Each log p_i is taken once, with the block's.
func EntropyGrad(dst, probs []float64, size int) {
	copy(dst, probs)
	apply(dst[:len(probs)], lanes.log, math.Log)
	for r := 0; r < len(probs); r += size {
		h := 0.0
		for i := r; i < r+size; i++ {
			if probs[i] > 1e-12 {
				h -= probs[i] * dst[i]
			}
		}
		for i := r; i < r+size; i++ {
			if p := probs[i]; p > 1e-12 {
				dst[i] = -p * (dst[i] + h)
			} else {
				dst[i] = 0
			}
		}
	}
}
