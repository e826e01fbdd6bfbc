package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"harl/internal/xrand"
)

// randBlock returns n values in [-1, 1).
func randBlock(rng *xrand.RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 2*rng.Float64() - 1
	}
	return xs
}

// transposed returns the row-major rows×cols block src as cols×rows.
func transposed(src []float64, rows, cols int) []float64 {
	dst := make([]float64, len(src))
	Transpose(dst, src, rows, cols)
	return dst
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

// useKernel points gemm and the element-wise loops at the named implementation
// — "avx", the host's assembly tiles and lanes, or "portable", the Go loops
// alone — and returns the undo. ok is false when the host has no tiles to point
// gemm at (and so no lanes either).
func useKernel(impl string) (undo func(), ok bool) {
	hostTiles, hostLanes := gemmTiles, lanes
	if impl != "avx" {
		gemmTiles, lanes = nil, zero(lanes)
	}
	return func() { gemmTiles, lanes = hostTiles, hostLanes }, gemmTiles != nil || impl != "avx"
}

// zero returns the zero value of its argument's type: lanes' has no name.
func zero[T any](T) (z T) { return z }

var kernels = []string{"avx", "portable"}

// eachKernel runs f once per implementation: the portable loops always, the
// assembly when the host can execute it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, impl := range kernels {
		t.Run(impl, func(t *testing.T) {
			undo, ok := useKernel(impl)
			defer undo()
			if !ok {
				t.Skip("nn has no assembly on this host")
			}
			f(t)
		})
	}
}

// naiveGemm is gemm's contract as the plain triple loop.
func naiveGemm(c []float64, ldc int, a []float64, ars, acs int, b []float64, ldb, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				c[i*ldc+j] += float64(a[i*ars+p*acs] * b[p*ldb+j])
			}
		}
	}
}

// gemmCase is one kernel problem on sub-block views: c is the m×n block at
// (1, cPad) of a wider buffer and b sits bPad columns into its own, so ldc and
// ldb exceed n; a is row-major, or with aT the view of a stored k×m matrix;
// aPad widens its rows. Everything the views do not cover is a canary.
type gemmCase struct {
	m, n, k          int
	aT               bool
	cPad, bPad, aPad int
}

// check runs the case through the naive loop, the portable loop and, where the
// host has it, the assembly, and compares the whole c buffers — the seeded
// block, and every canary around it, which no kernel may touch — bit for bit.
func (g gemmCase) check(t *testing.T, rng *xrand.RNG) {
	t.Helper()
	ldc, ldb := g.n+2*g.cPad, g.n+2*g.bPad
	ars, acs := g.k+g.aPad, 1
	if g.aT {
		ars, acs = 1, g.m+g.aPad
	}
	cbuf := randBlock(rng, (g.m+2)*ldc)
	a, bbuf := randBlock(rng, g.m*ars+g.k*acs), randBlock(rng, (g.k+1)*ldb)
	run := func(kernel func([]float64, int, []float64, int, int, []float64, int, int, int, int)) []float64 {
		got := append([]float64(nil), cbuf...)
		kernel(got[ldc+g.cPad:], ldc, a, ars, acs, bbuf[g.bPad:], ldb, g.m, g.n, g.k)
		return got
	}
	want := run(naiveGemm)
	for _, impl := range kernels {
		if undo, ok := useKernel(impl); ok {
			sameBits(t, fmt.Sprintf("%s gemm %+v", impl, g), run(gemm), want)
			undo()
		}
	}
}

// TestGemmMatchesNaive pins both implementations of the kernel to the naive
// triple loop bit for bit: empty, single-row and ragged shapes on both sides
// of the 4×8 tile and of the portable loop's blocks (its 128-long gathered
// column, four-row groups, four-p sweeps), either stride order of a, padded
// rows, a non-zero seed in c and untouched canaries around it.
func TestGemmMatchesNaive(t *testing.T) {
	if gemmTiles == nil {
		t.Log("gemm has no assembly tiles on this host: portable loop only")
	}
	rng := xrand.New(21)
	for _, m := range []int{0, 1, 3, 4, 5, 16, 64, 101} {
		for _, n := range []int{1, 3, 7, 8, 9, 16, 23, 64} {
			for _, k := range []int{0, 1, 3, 16, 23, 64, 101, 131} {
				for _, aT := range []bool{false, true} {
					gemmCase{m: m, n: n, k: k, aT: aT}.check(t, rng)
					gemmCase{m: m, n: n, k: k, aT: aT, cPad: 3, bPad: 5, aPad: 2}.check(t, rng)
				}
			}
		}
	}
}

// FuzzGemm throws arbitrary shapes and view paddings at gemmCase.check; its
// seed corpus (here and under testdata/fuzz) runs with the ordinary tests.
func FuzzGemm(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(64), uint8(101), uint8(0))
	f.Add(uint64(2), uint8(101), uint8(23), uint8(16), uint8(0xff))
	f.Add(uint64(3), uint8(5), uint8(9), uint8(200), uint8(0x55))
	f.Fuzz(func(t *testing.T, seed uint64, m, n, k, views uint8) {
		g := gemmCase{m: int(m % 40), n: int(n % 72), k: int(k), aT: views&1 != 0,
			cPad: int(views >> 1 & 3), bPad: int(views >> 3 & 3), aPad: int(views >> 5)}
		g.check(t, xrand.New(seed))
	})
}

// BenchmarkGemm times the kernel at the three dense passes of a 16-sample
// block through the GEMM-1024³ agent's widest layers — forward-16x64x64 is the
// 64→64 layer's Yᵀ = W·Xᵀ (m = 64, n = 16, k = 64), gw and dx are named m×n×k —
// under each implementation. `make bench-hot` gates it.
func BenchmarkGemm(b *testing.B) {
	rng := xrand.New(22)
	for _, s := range []struct {
		name              string
		m, n, k, ars, acs int
	}{
		{"forward-16x64x64", 64, 16, 64, 64, 1},
		{"gw-101x64x16", 101, 64, 16, 1, 101},
		{"dx-16x64x101", 16, 64, 101, 101, 1},
	} {
		c, a, bb := randBlock(rng, s.m*s.n), randBlock(rng, s.m*s.k), randBlock(rng, s.k*s.n)
		for _, impl := range kernels {
			b.Run(s.name+"/"+impl, func(b *testing.B) {
				undo, ok := useKernel(impl)
				defer undo()
				if !ok {
					b.Skip("gemm has no assembly tiles on this host")
				}
				for i := 0; i < b.N; i++ {
					gemm(c, s.n, a, s.ars, s.acs, bb, s.n, s.m, s.n, s.k)
				}
			})
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
		"backward x":  func() { l.BackwardBatch(nil, []float64{1}, []float64{1, 2}, 1) },
		"backward dy": func() { l.BackwardBatch(nil, []float64{1, 2, 3}, []float64{1}, 1) },
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
		yT := make([]float64, n*3)
		l.ForwardBatch(yT, transposed(x, n, 4), n)
		s := 0.0
		for i, y := range transposed(yT, 3, n) {
			s += y * dy[i]
		}
		return s
	}
	dx := make([]float64, n*4)
	l.BackwardBatch(dx, x, dy, n)
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
	const n = 2
	m := NewMLP(rng, n, 3, 5, 4, 2)
	x, dy := randBlock(rng, n*3), randBlock(rng, n*2)
	loss := func() float64 {
		sum := 0.0
		for i, y := range transposed(m.ForwardBatch(transposed(x, n, 3), n), 2, n) {
			sum += y * dy[i]
		}
		return sum
	}
	loss()
	m.BackwardBatch(x, append([]float64(nil), dy...), n)
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
	const n = 16
	m := NewMLP(rng, n, 2, 16, 1)
	var first, last float64
	for epoch := 1; epoch <= 400; epoch++ {
		x := randBlock(rng, n*2)
		y := m.ForwardBatch(transposed(x, n, 2), n) // one output: n×1 either way round
		loss := 0.0
		for r := range y {
			d := y[r] - (x[2*r] - 0.5*x[2*r+1])
			loss += d * d
			y[r] = 2 * d
		}
		m.BackwardBatch(x, y, n)
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
	EntropyGrad(g, p, len(p))
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

// TestBatchedPassesBitIdentical pins ForwardBatch/BackwardBatch (Linear and
// MLP), under either gemm implementation, and the single-log EntropyGrad to
// the retired per-sample kernels of oracle_test.go bit for bit — outputs, input
// gradients and accumulated gW/gB — with the block also fed in ragged pieces,
// since the tuner's workers=1 ≡ workers=N journal contract tolerates zero
// drift.
func TestBatchedPassesBitIdentical(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
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
			var y []float64
			dx := make([]float64, n*in)
			for lo := 0; lo < n; { // pieces of 1, 2, 3, … rows
				hi := min(lo+lo/3+1, n)
				yT := make([]float64, (hi-lo)*out)
				lb.ForwardBatch(yT, transposed(x[lo*in:hi*in], hi-lo, in), hi-lo)
				y = append(y, transposed(yT, out, hi-lo)...)
				lb.BackwardBatch(dx[lo*in:hi*in], x[lo*in:hi*in], dy[lo*out:hi*out], hi-lo)
				lo = hi
			}
			sameBits(t, "ForwardBatch", y, wantY)
			sameBits(t, "BackwardBatch dx", dx, wantDx)
			sameBits(t, "gW", lb.GW, la.GW)
			sameBits(t, "gB", lb.GB, la.GB)
		}

		ma, mb := NewMLP(xrand.New(8), 0, 23, 64, 64, 3), NewMLP(xrand.New(8), 16, 23, 64, 64, 3)
		x, dy := randBlock(rng, n*23), randBlock(rng, n*3)
		for lo := 0; lo < n; lo += 16 {
			hi := min(lo+16, n)
			var wantY []float64
			for r := lo; r < hi; r++ {
				ya, c := ma.Forward(x[r*23 : (r+1)*23])
				wantY = append(wantY, ya...)
				ma.Backward(c, append([]float64(nil), dy[r*3:(r+1)*3]...))
			}
			yT := mb.ForwardBatch(transposed(x[lo*23:hi*23], hi-lo, 23), hi-lo)
			sameBits(t, "MLP ForwardBatch", transposed(yT, 3, hi-lo), wantY)
			mb.BackwardBatch(x[lo*23:hi*23], append([]float64(nil), dy[lo*3:hi*3]...), hi-lo)
		}
		for li := range ma.Layers {
			sameBits(t, "MLP gW", mb.Layers[li].GW, ma.Layers[li].GW)
			sameBits(t, "MLP gB", mb.Layers[li].GB, ma.Layers[li].GB)
		}
	})

	// Stale destination contents (including under clamped-away entries) must
	// not leak into the single-log entropy gradient.
	rng := xrand.New(7)
	for _, probs := range [][]float64{softmax(randBlock(rng, 101)), {1, 0, 0}, {0.25, 0.25, 0.25, 0.25}} {
		got := make([]float64, len(probs))
		for i := range got {
			got[i] = 99
		}
		EntropyGrad(got, probs, len(probs))
		sameBits(t, "EntropyGrad", got, refEntropyGrad(probs))
	}
}

// TestBatchedPassesAllocFree pins the point of caller-owned scratch: the hot
// kernels allocate nothing — no per-layer, per-pass block in particular.
func TestBatchedPassesAllocFree(t *testing.T) {
	const n = 5
	m := NewMLP(xrand.New(9), n, 8, 16, 4)
	x, xT := make([]float64, n*8), make([]float64, n*8)
	g, dy := make([]float64, n*4), make([]float64, n*4)
	warm := func() {
		Transpose(xT, x, n, 8)
		Transpose(dy, m.ForwardBatch(xT, n), 4, n)
		Softmax(dy, 4)
		LogProbGrad(g[:4], dy[:4], 0)
		EntropyGrad(g, dy, 4)
		m.BackwardBatch(x, dy, n)
		Step(1e-3, n, 1, m.Layers...)
	}
	warm()
	if n := totalAllocs(20, warm); n != 0 {
		t.Fatalf("20 warm batched passes allocate %d objects, want 0", n)
	}
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

func TestAdamStepReducesLoss(t *testing.T) {
	rng := xrand.New(6)
	l := NewLinear(1, 1, rng)
	y := make([]float64, 1)
	// Fit y = 3x.
	for step := 1; step <= 500; step++ {
		x := []float64{rng.Float64()}
		l.ForwardBatch(y, x, 1)
		y[0] = 2 * (y[0] - 3*x[0])
		l.BackwardBatch(nil, x, y, 1)
		Step(5e-2, 1, step, l)
	}
	if math.Abs(l.W[0]-3) > 0.2 {
		t.Fatalf("Adam did not converge: w=%f", l.W[0])
	}
}
