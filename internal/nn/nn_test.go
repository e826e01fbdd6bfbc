package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"harl/internal/xrand"
)

// reserve sizes the MLP for passes of up to rows samples and returns its
// BackwardBatch scratch.
func reserve(m *MLP, rows int) []float64 {
	m.Reserve(rows)
	widest := 0
	for _, l := range m.Layers {
		widest = max(widest, l.In+l.Out)
	}
	return make([]float64, rows*widest)
}

// randBlock returns n values in [-1, 1).
func randBlock(rng *xrand.RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 2*rng.Float64() - 1
	}
	return xs
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v want %v", what, i, got[i], want[i])
		}
	}
}

// TestGemmNTMatchesNaive pins the micro-kernel to the naive triple loop bit
// for bit over ragged shapes: empty and single-row blocks, column counts on
// both sides of the 4-wide register block, and a non-zero initial c.
func TestGemmNTMatchesNaive(t *testing.T) {
	rng := xrand.New(21)
	for _, m := range []int{0, 1, 16, 64} {
		for _, n := range []int{1, 3, 4, 5, 101, 197} {
			for _, k := range []int{1, 23, 64} {
				a, b, c := randBlock(rng, m*k), randBlock(rng, n*k), randBlock(rng, m*n)
				want := append([]float64(nil), c...)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						for p := 0; p < k; p++ {
							want[i*n+j] += a[i*k+p] * b[j*k+p]
						}
					}
				}
				gemmNT(c, a, b, m, n, k)
				sameBits(t, fmt.Sprintf("gemmNT %dx%dx%d", m, n, k), c, want)
			}
		}
	}
}

func TestLinearForwardShape(t *testing.T) {
	l := NewLinear(3, 2, xrand.New(1))
	y := make([]float64, 4)
	l.ForwardBatch(y, []float64{1, 2, 3, 4, 5, 6}, 2)
	if y[0] == 0 || y[3] == 0 {
		t.Fatalf("output %v", y)
	}
}

func TestLinearForwardPanicsOnDim(t *testing.T) {
	l := NewLinear(3, 2, xrand.New(1))
	for name, f := range map[string]func(){
		"forward x":   func() { l.ForwardBatch(make([]float64, 2), []float64{1}, 1) },
		"forward y":   func() { l.ForwardBatch(make([]float64, 1), []float64{1, 2, 3}, 1) },
		"backward x":  func() { l.BackwardBatch(nil, []float64{1}, []float64{1, 2}, 1, make([]float64, 5)) },
		"backward dy": func() { l.BackwardBatch(nil, []float64{1, 2, 3}, []float64{1}, 1, make([]float64, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s dim mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestLinearGradCheck verifies BackwardBatch against finite differences over
// a three-sample block.
func TestLinearGradCheck(t *testing.T) {
	rng := xrand.New(2)
	l := NewLinear(4, 3, rng)
	const n = 3
	x, dy := randBlock(rng, n*4), randBlock(rng, n*3)
	loss := func() float64 {
		y := make([]float64, n*3)
		l.ForwardBatch(y, x, n)
		s := 0.0
		for i := range y {
			s += y[i] * dy[i]
		}
		return s
	}
	dx := make([]float64, n*4)
	l.BackwardBatch(dx, x, dy, n, make([]float64, n*7))
	const eps = 1e-6
	check := func(what string, v *float64, got float64) {
		orig := *v
		*v = orig + eps
		up := loss()
		*v = orig - eps
		down := loss()
		*v = orig
		if want := (up - down) / (2 * eps); math.Abs(want-got) > 1e-5 {
			t.Fatalf("%s = %f want %f", what, got, want)
		}
	}
	for i := range l.W {
		check(fmt.Sprintf("dW[%d]", i), &l.W[i], l.GW[i])
	}
	for i := range l.B {
		check(fmt.Sprintf("dB[%d]", i), &l.B[i], l.GB[i])
	}
	for i := range x {
		check(fmt.Sprintf("dx[%d]", i), &x[i], dx[i])
	}
}

// TestMLPGradCheck verifies end-to-end batched backprop through tanh layers.
func TestMLPGradCheck(t *testing.T) {
	rng := xrand.New(3)
	m := NewMLP(rng, 3, 5, 4, 2)
	const n = 2
	x, dy := randBlock(rng, n*3), randBlock(rng, n*2)
	tmp := reserve(m, n)
	loss := func() float64 {
		sum := 0.0
		for i, y := range m.ForwardBatch(x, n) {
			sum += y * dy[i]
		}
		return sum
	}
	m.ForwardBatch(x, n)
	m.BackwardBatch(x, append([]float64(nil), dy...), n, tmp)
	const eps = 1e-6
	for li, l := range m.Layers {
		for i := range l.W {
			orig := l.W[i]
			l.W[i] = orig + eps
			up := loss()
			l.W[i] = orig - eps
			down := loss()
			l.W[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(want-l.GW[i]) > 1e-4 {
				t.Fatalf("layer %d dW[%d] = %g want %g", li, i, l.GW[i], want)
			}
		}
	}
}

func TestMLPLearnsRegression(t *testing.T) {
	rng := xrand.New(4)
	m := NewMLP(rng, 2, 16, 1)
	const n = 16
	tmp := reserve(m, n)
	var first, last float64
	for epoch := 1; epoch <= 400; epoch++ {
		x := randBlock(rng, n*2)
		y := m.ForwardBatch(x, n)
		loss := 0.0
		for r := range y {
			d := y[r] - (x[2*r] - 0.5*x[2*r+1])
			loss += d * d
			y[r] = 2 * d
		}
		m.BackwardBatch(x, y, n, tmp)
		Step(1e-2, n, epoch, m.Layers...)
		if epoch == 1 {
			first = loss / n
		}
		last = loss / n
	}
	if last > first/10 {
		t.Fatalf("loss did not drop: first %.4f last %.4f", first, last)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			logits = append(logits, math.Mod(v, 50))
		}
		p := softmax(logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := softmax([]float64{1000, 1001, 999})
	if math.IsNaN(p[0]) || p[1] < p[0] || p[1] < p[2] {
		t.Fatalf("unstable softmax: %v", p)
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := xrand.New(5)
	probs := []float64{0.1, 0.6, 0.3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(probs, rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("arm %d frequency %.3f want %.3f", i, got, p)
		}
	}
}

func TestLogProbGradSumsToZero(t *testing.T) {
	p := softmax([]float64{0.5, -1, 2})
	g := make([]float64, 3)
	LogProbGrad(g, p, 1)
	sum := 0.0
	for _, v := range g {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("logprob grad sums to %g", sum)
	}
	if g[1] <= 0 {
		t.Fatal("chosen action gradient must be positive")
	}
}

func TestEntropyGradAtUniformIsZero(t *testing.T) {
	p := []float64{0.25, 0.25, 0.25, 0.25}
	g := make([]float64, len(p))
	EntropyGrad(g, p)
	for _, v := range g {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("entropy grad at uniform: %v", g)
		}
	}
}

func TestEntropyValues(t *testing.T) {
	if h := Entropy([]float64{1, 0}); h != 0 {
		t.Fatalf("deterministic entropy %f", h)
	}
	if h := Entropy([]float64{0.5, 0.5}); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Fatalf("uniform entropy %f", h)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax wrong")
	}
}

func TestNumParams(t *testing.T) {
	m := NewMLP(xrand.New(1), 3, 4, 2)
	// 3*4+4 + 4*2+2 = 26
	if m.NumParams() != 26 {
		t.Fatalf("params %d want 26", m.NumParams())
	}
}

// TestBatchedPassesBitIdentical pins ForwardBatch/BackwardBatch (Linear and
// MLP) and the single-log EntropyGrad to the retired per-sample kernels
// of oracle_test.go bit for bit — outputs, input gradients and accumulated
// gW/gB — with the block also fed in ragged pieces, since the tuner's
// workers=1 ≡ workers=N journal contract tolerates zero drift.
func TestBatchedPassesBitIdentical(t *testing.T) {
	rng := xrand.New(7)
	const n = 37
	for _, dims := range [][2]int{{5, 4}, {23, 64}, {64, 101}, {64, 1}} {
		in, out := dims[0], dims[1]
		la, lb := NewLinear(in, out, xrand.New(7)), NewLinear(in, out, xrand.New(7))
		x, dy := randBlock(rng, n*in), randBlock(rng, n*out)
		var wantY, wantDx []float64
		for s := 0; s < n; s++ {
			wantY = append(wantY, la.Forward(x[s*in:(s+1)*in])...)
			wantDx = append(wantDx, la.Backward(x[s*in:(s+1)*in], dy[s*out:(s+1)*out])...)
		}
		y, dx := make([]float64, n*out), make([]float64, n*in)
		tmp := make([]float64, n*(in+out))
		for lo := 0; lo < n; { // pieces of 1, 2, 3, … rows
			hi := min(lo+lo/3+1, n)
			lb.ForwardBatch(y[lo*out:hi*out], x[lo*in:hi*in], hi-lo)
			lb.BackwardBatch(dx[lo*in:hi*in], x[lo*in:hi*in], dy[lo*out:hi*out], hi-lo, tmp)
			lo = hi
		}
		sameBits(t, "ForwardBatch", y, wantY)
		sameBits(t, "BackwardBatch dx", dx, wantDx)
		sameBits(t, "gW", lb.GW, la.GW)
		sameBits(t, "gB", lb.GB, la.GB)
	}

	ma, mb := NewMLP(xrand.New(8), 23, 64, 64, 3), NewMLP(xrand.New(8), 23, 64, 64, 3)
	tmp := reserve(mb, 16)
	x, dy := randBlock(rng, n*23), randBlock(rng, n*3)
	for lo := 0; lo < n; lo += 16 {
		hi := min(lo+16, n)
		var wantY []float64
		for r := lo; r < hi; r++ {
			ya, c := ma.Forward(x[r*23 : (r+1)*23])
			wantY = append(wantY, ya...)
			ma.Backward(c, append([]float64(nil), dy[r*3:(r+1)*3]...))
		}
		sameBits(t, "MLP ForwardBatch", mb.ForwardBatch(x[lo*23:hi*23], hi-lo), wantY)
		mb.BackwardBatch(x[lo*23:hi*23], append([]float64(nil), dy[lo*3:hi*3]...), hi-lo, tmp)
	}
	for li := range ma.Layers {
		sameBits(t, "MLP gW", mb.Layers[li].GW, ma.Layers[li].GW)
		sameBits(t, "MLP gB", mb.Layers[li].GB, ma.Layers[li].GB)
	}

	// Stale destination contents (including under clamped-away entries) must
	// not leak into the single-log entropy gradient.
	for _, probs := range [][]float64{softmax(randBlock(rng, 101)), {1, 0, 0}, {0.25, 0.25, 0.25, 0.25}} {
		got := make([]float64, len(probs))
		for i := range got {
			got[i] = 99
		}
		EntropyGrad(got, probs)
		sameBits(t, "EntropyGrad", got, refEntropyGrad(probs))
	}
}

// TestBatchedPassesAllocFree pins the point of caller-owned scratch: the hot
// kernels allocate nothing.
func TestBatchedPassesAllocFree(t *testing.T) {
	m := NewMLP(xrand.New(9), 8, 16, 4)
	const n = 5
	tmp := reserve(m, n)
	x := make([]float64, n*8)
	g := make([]float64, 4)
	warm := func() {
		out := m.ForwardBatch(x, n)
		Softmax(out[:4])
		LogProbGrad(g, out[:4], 0)
		EntropyGrad(g, out[:4])
		m.BackwardBatch(x, out, n, tmp)
	}
	warm()
	if got := testing.AllocsPerRun(20, warm); got != 0 {
		t.Fatalf("warm batched kernels allocate %v times per run, want 0", got)
	}
}

func TestAdamStepReducesLoss(t *testing.T) {
	rng := xrand.New(6)
	l := NewLinear(1, 1, rng)
	y, tmp := make([]float64, 1), make([]float64, 2)
	// Fit y = 3x.
	for step := 1; step <= 500; step++ {
		x := []float64{rng.Float64()}
		l.ForwardBatch(y, x, 1)
		y[0] = 2 * (y[0] - 3*x[0])
		l.BackwardBatch(nil, x, y, 1, tmp)
		Step(5e-2, 1, step, l)
	}
	if math.Abs(l.W[0]-3) > 0.2 {
		t.Fatalf("Adam did not converge: w=%f", l.W[0])
	}
}
