package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"harl/internal/xrand"
)

// elementwise names the three math loops apply runs: where the kernel is kept
// (read at call time, so useKernel decides it) and the math function that
// specifies it.
var elementwise = []struct {
	name   string
	kernel *func(*float64, int) int
	f      func(float64) float64
}{
	{"exp", &lanes.exp, math.Exp},
	{"log", &lanes.log, math.Log},
	{"tanh", &lanes.tanh, math.Tanh},
}

// ordinaryGroups returns two groups of four every kernel takes, and a tail.
func ordinaryGroups() []float64 { return []float64{0.3, 1.7, 0.01, 5, 0.9, 2.5, 0.625, 11, 0.2} }

// tanhGroups are one group of each class tanhAVX sorts by: every |x| below
// 0.625, none, some.
var tanhGroups = [][]float64{{0.1, -0.3, 0.5, -0.62}, {0.7, -2, 30, -50}, {0.1, 0.7, -0.3, -5}}

// glue names the loops between the kernels, each as the function that holds its
// scalar loop and its lanes: x is updated in place, given y of the same length.
var glue = []struct {
	name string
	run  func(x, y []float64)
}{
	{"TanhGrad", TanhGrad},
	{"Add", Add},
	{"Axmby", func(x, y []float64) { Axmby(x, y[0], y, y[len(y)-1]) }},
	{"Softmax", func(x, _ []float64) { // one row, then rows of 5 and of 3 where they fit
		for _, size := range []int{len(x), 5, 3} {
			if len(x)%size == 0 {
				Softmax(x, size)
			}
		}
	}},
}

// checkGlue runs one of the glue loops under the kernel in use and under the
// portable loops and compares the results bit for bit.
func checkGlue(t *testing.T, name string, run func(x, y []float64), x, y []float64) {
	t.Helper()
	got, want := slices.Clone(x), slices.Clone(x)
	run(got, y)
	undo, _ := useKernel("portable")
	run(want, y)
	undo()
	sameBits(t, fmt.Sprintf("%s over %d", name, len(x)), got, want)
}

// laneEdges are the inputs on and around every branch and domain bound of the
// three kernels and of the math routines they transcribe.
var laneEdges = func() []float64 {
	bits := func(b uint64) float64 { return math.Float64frombits(b) }
	edges := []float64{0, math.Inf(1), math.NaN(), bits(0x7FF8000000000001), bits(0x7FF0000000000001),
		1, 2, 0.5, 1e-12, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		bits(0x000FFFFFFFFFFFFF), bits(0x0010000000000000), bits(0x0010000000000001), // denormal | normal
		0.625, math.Sqrt2 / 2, math.Sqrt2, math.Ln2, math.Ln2 / 2, 1 / math.Log2E,
		22.0074, 44.0148, 44.014845965556525, 88.02969193111305, 350, 700, 709.78271289338397, 745.2, 1e10}
	for _, v := range edges {
		edges = append(edges, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for _, v := range edges {
		edges = append(edges, -v)
	}
	for e := -1074; e <= 1023; e++ { // √2/2 at every scale: log's f1 branch
		edges = append(edges, math.Ldexp(math.Sqrt2/2, e), math.Ldexp(math.Nextafter(math.Sqrt2/2, 1), e))
	}
	return edges
}()

// checkApply runs x through apply under the kernel in use and compares every
// element with f's own result bit for bit.
func checkApply(t *testing.T, name string, kernel func(*float64, int) int, f func(float64) float64, x []float64) {
	t.Helper()
	got := slices.Clone(x)
	apply(got, kernel, f)
	for i, v := range x {
		if want := f(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%v = %#x) = %#x want %#x (element %d of %d)", name, v, math.Float64bits(v),
				math.Float64bits(got[i]), math.Float64bits(want), i, len(x))
		}
	}
}

// TestLanesMatchMath pins the element-wise lanes to their scalars on the bits:
// exp, log and tanh to math's, over dense draws from every range the kernels
// branch on and over the edge table — each edge in every lane of the first and
// then of the second group of an otherwise ordinary block, so a kernel that
// stops hands over before either — tanh also over every pairing of its three
// group classes and with ±0.625 and its neighbours in each lane of two groups
// otherwise below it; Adam to the portable loop over 50 chained steps, lengths
// with and without a tail; the glue loops to their Go loops and the row maximum
// to slices.Max at lengths on every side of a group, Transpose and the bias seed
// to what they say over ragged blocks.
func TestLanesMatchMath(t *testing.T) {
	if lanes.exp == nil {
		t.Log("nn has no element-wise lanes on this host: scalar loops only")
	}
	eachKernel(t, func(t *testing.T) {
		rng := xrand.New(41)
		span := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
		dense := make([]float64, 0, 1<<16)
		for len(dense) < cap(dense)-7 {
			mag := math.Exp(span(-745, 709.7)) // every binade, denormals included
			dense = append(dense, span(-5, 5), span(-50, 50), span(-750, 750), span(0, 1), span(-0.7, 0.7),
				mag, -mag)
		}
		for _, e := range elementwise {
			checkApply(t, e.name, *e.kernel, e.f, dense)
			checkApply(t, e.name, *e.kernel, e.f, dense[:7])
			for _, edge := range laneEdges {
				for at := 0; at < 8; at++ {
					x := ordinaryGroups()
					x[at] = edge
					checkApply(t, e.name, *e.kernel, e.f, x)
				}
			}
		}

		for _, first := range tanhGroups {
			for _, second := range tanhGroups {
				checkApply(t, "tanh", lanes.tanh, math.Tanh, slices.Concat(first, second, []float64{0.2}))
			}
		}
		for _, edge := range []float64{0.625, math.Nextafter(0.625, 1), math.Nextafter(0.625, 0)} {
			for at := 0; at < 8; at++ {
				x := slices.Concat(tanhGroups[0], tanhGroups[0], []float64{0.2})
				x[at] = math.Copysign(edge, x[at])
				checkApply(t, "tanh", lanes.tanh, math.Tanh, x)
			}
		}

		for _, n := range []int{1, 3, 4, 5, 67, 110, 1024} {
			x, y := randBlock(rng, n), randBlock(rng, n)
			for _, g := range glue {
				checkGlue(t, g.name, g.run, x, y)
			}
			// rowMax against slices.Max: the row as drawn, one whose maximum is a
			// -0 before a +0 (the +0 wins), one holding a NaN.
			zeros, nan := slices.Clone(x), slices.Clone(x)
			for i, v := range zeros {
				zeros[i] = -math.Abs(v) - 1
			}
			zeros[n/2], zeros[n-1], nan[n/2] = math.Copysign(0, -1), 0, math.NaN()
			for _, row := range [][]float64{x, zeros, nan} {
				got, want := rowMax(row), slices.Max(row)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("rowMax(%v) = %v want %v", row, got, want)
				}
			}
		}
		for _, rows := range []int{1, 3, 4, 5, 7, 8, 16, 23, 101} {
			for _, cols := range []int{1, 3, 4, 5, 8, 16, 23, 64} {
				src, dst := randBlock(rng, rows*cols), randBlock(rng, rows*cols+4)
				want := slices.Clone(dst)
				for i, v := range src {
					want[i%cols*rows+i/cols] = v
				}
				Transpose(dst[:rows*cols], src, rows, cols)
				sameBits(t, fmt.Sprintf("Transpose %d×%d and the canary after it", rows, cols), dst, want)
				// A layer of no inputs leaves its forward block at the bias seed.
				(&Linear{Out: rows, B: src[:rows]}).ForwardBatch(dst[:rows*cols], nil, cols)
				for i := range src {
					want[i] = src[i/cols]
				}
				sameBits(t, fmt.Sprintf("bias seed %d×%d and the canary after it", rows, cols), dst, want)
			}
		}

		for _, n := range []int{1, 3, 4, 67, 4096} {
			w, g, m, v := randBlock(rng, n), randBlock(rng, n), randBlock(rng, n), randBlock(rng, n)
			for i := range v {
				v[i] *= v[i] // second moments are non-negative
			}
			rw, rg, rm, rv := slices.Clone(w), slices.Clone(g), slices.Clone(m), slices.Clone(v)
			for step := 1; step <= 50; step++ {
				adam(w, g, m, v, 3e-4, 64, step)
				undo, _ := useKernel("portable")
				adam(rw, rg, rm, rv, 3e-4, 64, step)
				undo()
				sameBits(t, "adam w", w, rw)
				sameBits(t, "adam m", m, rm)
				sameBits(t, "adam v", v, rv)
				sameBits(t, "adam g", g, rg)
				copy(g, randBlock(rng, n))
				copy(rg, g)
			}
		}
	})
}

func fromBits(bits ...uint64) []float64 {
	x := make([]float64, len(bits))
	for i, b := range bits {
		x[i] = math.Float64frombits(b)
	}
	return x
}

// pinnedLogits are two rows of five logits in [-4, 4); pinnedProbs is their
// softmax, taken at the commit before the lanes existed (amd64, FMA host).
var (
	pinnedLogits = fromBits(0x3ffab7e33a278e3c, 0x3fc48d332db0ab40, 0xbfb6890eb798c540, 0xbfc1e0c94e9886a0, 0x40094b286a65de88,
		0x3f9f4b9d74da5600, 0x3ff38fbc5b64fdb8, 0x3f9f311f8c90b700, 0x3fda327f3e4e70a0, 0xc000ac83a5274420)
	pinnedProbs = fromBits(0x3fc5533fcd047173, 0x3fa2db37c2f3de59, 0x3f9d6981c1fd873d, 0x3f9bee86b4342f72, 0x3fe7b2bc4cde1808,
		0x3fc29e63e3214885, 0x3fdea9ac5fb9f77a, 0x3fc29de895216d44, 0x3fcb3140b4f5dbba, 0x3f91f8d09a9bfc42)
)

// TestSoftmaxPinned pins Softmax to literal bits under either implementation,
// block-wise and row by row, and then the rows on which an order of taking the
// row maximum could show, each between the two pinned rows, which it must leave
// alone: a NaN logit (the whole row NaN), a maximum that is a +0 and a -0 in
// either order or a -0 alone, a +Inf and a row of -Inf (NaN again: Inf - Inf).
// The literals are the parent commit's, where slices.Max took the maximum.
func TestSoftmaxPinned(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	zeroTie := fromBits(0x3fd38dee81c64a88, 0x3fd38dee81c64a88, 0x3fb173e5b7ff5170, 0x3fd38dee81c64a88, 0x3f8f276195a98164)
	edges := []struct{ logits, want []float64 }{ // want nil: every probability NaN
		{[]float64{1, math.NaN(), 0.5, -2, 3}, nil},
		{[]float64{negZero, 0, -1.5, negZero, -3}, zeroTie},
		{[]float64{0, negZero, -1.5, 0, -3}, zeroTie},
		{[]float64{negZero, negZero, -1.5, negZero, -3}, zeroTie},
		{[]float64{1, inf, 0, -1, 2}, nil},
		{[]float64{-inf, -inf, -inf, -inf, -inf}, nil},
	}
	eachKernel(t, func(t *testing.T) {
		block, rows := slices.Clone(pinnedLogits), slices.Clone(pinnedLogits)
		Softmax(block, 5)
		Softmax(rows[:5], 5)
		Softmax(rows[5:], 5)
		sameBits(t, "Softmax block", block, pinnedProbs)
		sameBits(t, "Softmax rows", rows, pinnedProbs)

		for _, e := range edges {
			block := slices.Concat(pinnedLogits[:5], e.logits, pinnedLogits[5:])
			rows := slices.Clone(block)
			Softmax(block, 5)
			for r := 0; r < len(rows); r += 5 {
				Softmax(rows[r:r+5], 5)
			}
			for _, got := range [][]float64{block, rows} {
				sameBits(t, fmt.Sprintf("Softmax around %v", e.logits), slices.Concat(got[:5], got[10:]), pinnedProbs)
				if e.want != nil {
					sameBits(t, fmt.Sprintf("Softmax of %v", e.logits), got[5:10], e.want)
				} else if i := slices.IndexFunc(got[5:10], func(p float64) bool { return !math.IsNaN(p) }); i >= 0 {
					t.Fatalf("Softmax of %v: probability %d = %v want NaN", e.logits, i, got[5+i])
				}
			}
		}
	})
}

// TestEntropyGradPinned pins EntropyGrad, one probability clamped away, to
// literal bits of the same vintage as pinnedProbs.
func TestEntropyGradPinned(t *testing.T) {
	want := fromBits(0x3fc43eb3d7cc9ab1, 0x3fb72e4a011b1334, 0x3fb3e81888f29199, 0x3fb343ea45f6837d, 0xbfd9b5ed1fe75769,
		0x3fc0a93a1941ed8c, 0xbfc239746f1baf57, 0x0, 0x3fbc1130a549fcf9, 0x3fab0b6d13f2903d)
	eachKernel(t, func(t *testing.T) {
		probs, got := slices.Clone(pinnedProbs), randBlock(xrand.New(1), 10)
		probs[7] = 0
		EntropyGrad(got, probs, 5)
		sameBits(t, "EntropyGrad", got, want)
	})
}

// FuzzLanes puts an arbitrary float64 into one lane of an ordinary group, and
// into the tail, and holds one of the three kernels to its math function on
// it, under every implementation the host has — or, when kind's high four bits
// are not zero, one of the glue loops to its Go loop, the value in x or (bit 0)
// in y; its seed corpus (here and under testdata/fuzz) runs with the ordinary
// tests.
func FuzzLanes(f *testing.F) {
	f.Add(math.Float64bits(0.3), uint8(0))
	f.Add(math.Float64bits(math.Inf(-1)), uint8(5))
	f.Add(math.Float64bits(-0.625), uint8(14))
	f.Add(math.Float64bits(math.Inf(1)), uint8(0x1c))
	f.Add(math.Float64bits(math.MaxFloat64), uint8(0x35))
	f.Add(math.Float64bits(math.Copysign(0, -1)), uint8(0x40))
	f.Fuzz(func(t *testing.T, bits uint64, kind uint8) {
		e, g := elementwise[int(kind)%len(elementwise)], glue[int(kind>>4)%len(glue)]
		x, y := ordinaryGroups(), ordinaryGroups()
		into := x
		if kind>>4 > 0 && kind&1 == 1 {
			into = y
		}
		into[int(kind>>2)&3], into[8] = math.Float64frombits(bits), math.Float64frombits(bits)
		for _, impl := range kernels {
			if undo, ok := useKernel(impl); ok {
				if kind>>4 > 0 {
					checkGlue(t, impl+" "+g.name, g.run, x, y)
				} else {
					checkApply(t, impl+" "+e.name, *e.kernel, e.f, x)
				}
				undo()
			}
		}
	})
}

// BenchmarkLanes times the element-wise loops at a Train's sizes — Adam over the
// 64×64 layer, exp, log and the row maximum (plain Go either way) over a 16-row
// block of the 3-wide heads plus one row of the 101-wide one, tanh over a 16×64
// activation block as drawn from [-1, 1) and with every |x| below the 0.625
// under which a group skips its exp, Transpose over that block — under each
// implementation. `make bench-hot` gates it.
func BenchmarkLanes(b *testing.B) {
	rng := xrand.New(23)
	src := randBlock(rng, 4096)
	probs := slices.Clone(src[:110])
	Softmax(probs, len(probs))
	x, g, m, v := make([]float64, 4096), make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)
	small := slices.Clone(src[:1024])
	Axmby(small, 0.6, small, 0)
	for _, s := range []struct {
		name string
		run  func()
	}{
		{"adam-4096", func() { copy(g, src); adam(x, g, m, v, 3e-4, 64, 100) }},
		{"exp-110", func() { copy(x, src[:110]); apply(x[:110], lanes.exp, math.Exp) }},
		{"log-110", func() { copy(x, probs); apply(x[:110], lanes.log, math.Log) }},
		{"tanh-1024", func() { copy(x, src[:1024]); Tanh(x[:1024]) }},
		{"tanh-1024-small", func() { copy(x, small); Tanh(x[:1024]) }},
		{"max-110", func() { x[0] = rowMax(src[:110]) }},
		{"transpose-64x16", func() { Transpose(x[:1024], src[:1024], 64, 16) }},
	} {
		for _, impl := range kernels {
			b.Run(s.name+"/"+impl, func(b *testing.B) {
				undo, ok := useKernel(impl)
				defer undo()
				if !ok || impl == "avx" && lanes.exp == nil {
					b.Skip("nn has no element-wise lanes on this host")
				}
				for i := 0; i < b.N; i++ {
					s.run()
				}
			})
		}
	}
}
