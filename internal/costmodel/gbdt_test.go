package costmodel

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"harl/internal/xrand"
)

// synth generates n samples of a nonlinear target over d features.
func synth(rng *xrand.RNG, n, d int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
		ys[i] = 3*x[0] - 2*x[1] + 4*x[0]*x[1] + math.Sin(6*x[2])
	}
	return xs, ys
}

func TestFitNonlinearFunction(t *testing.T) {
	rng := xrand.New(1)
	m := New(DefaultParams())
	xs, ys := synth(rng, 600, 6)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	m.Refit()
	if !m.Trained() {
		t.Fatal("model should be trained")
	}
	// Holdout error must be far below the target's variance.
	hx, hy := synth(rng, 300, 6)
	mse, varY := 0.0, 0.0
	meanY := 0.0
	for _, y := range hy {
		meanY += y
	}
	meanY /= float64(len(hy))
	for i := range hx {
		d := m.Predict(hx[i]) - hy[i]
		mse += d * d
		dv := hy[i] - meanY
		varY += dv * dv
	}
	if r2 := 1 - mse/varY; r2 < 0.8 {
		t.Fatalf("holdout R² = %.3f, want ≥ 0.8", r2)
	}
}

func TestRankingQuality(t *testing.T) {
	rng := xrand.New(2)
	m := New(DefaultParams())
	xs, ys := synth(rng, 500, 6)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	m.Refit()
	hx, hy := synth(rng, 300, 6)
	pred := m.PredictBatch(hx)
	if rho := spearman(pred, hy); rho < 0.9 {
		t.Fatalf("holdout spearman %.3f, want ≥ 0.9", rho)
	}
}

func TestUntrainedBehaviour(t *testing.T) {
	m := New(DefaultParams())
	if m.Trained() {
		t.Fatal("empty model claims training")
	}
	if p := m.Predict([]float64{1, 2}); p != 0 {
		t.Fatalf("empty model predicts %f", p)
	}
	m.Add([]float64{1}, 5)
	m.Refit() // below MinSamples: base only
	if m.Trained() {
		t.Fatal("single sample should not train trees")
	}
	if p := m.Predict([]float64{1}); p != 5 {
		t.Fatalf("base prediction %f want 5", p)
	}
}

func TestRefitDeterministic(t *testing.T) {
	rng := xrand.New(3)
	xs, ys := synth(rng, 200, 4)
	a, b := New(DefaultParams()), New(DefaultParams())
	for i := range xs {
		a.Add(xs[i], ys[i])
		b.Add(xs[i], ys[i])
	}
	a.Refit()
	b.Refit()
	probe := []float64{0.3, 0.7, 0.1, 0.9}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("refit not deterministic")
	}
}

// TestMaxDataEviction pins Add past MaxData: the kept samples are the last
// MaxData added, in order, a refit of them is the model built from only those
// samples, byte for byte, and an Add in the steady state costs its own row
// plus amortized slack, not a copy of the training set.
func TestMaxDataEviction(t *testing.T) {
	p := DefaultParams()
	p.MaxData = 300
	xs, ys := synth(xrand.New(9), 1000, 6)
	m := New(p)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	kept := New(p)
	for i := len(xs) - p.MaxData; i < len(xs); i++ {
		kept.Add(xs[i], ys[i])
	}
	if m.Len() != p.MaxData {
		t.Fatalf("%d samples kept, want %d", m.Len(), p.MaxData)
	}
	for i := range m.xs {
		if !slices.Equal(m.xs[i], kept.xs[i]) || m.ys[i] != kept.ys[i] {
			t.Fatalf("sample %d is not sample %d of the input", i, len(xs)-p.MaxData+i)
		}
	}
	m.Refit()
	kept.Refit()
	a, err := m.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := kept.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the evicting model and one built from the kept samples fit differently")
	}

	big := New(DefaultParams())
	row := make([]float64, 8)
	for i := 0; i < big.P.MaxData; i++ {
		big.Add(row, 1)
	}
	const adds = 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < adds; i++ {
		big.Add(row, 1)
	}
	runtime.ReadMemStats(&after)
	// A row is one 64-byte object; re-homing the window of 4096 slice headers
	// and targets every ~1000 adds (append's growth past 256) adds ~150 bytes.
	objs, size := float64(after.Mallocs-before.Mallocs)/adds, float64(after.TotalAlloc-before.TotalAlloc)/adds
	if objs > 1.1 || size > 512 {
		t.Fatalf("an Add past MaxData allocates %.2f objects, %.0f bytes", objs, size)
	}
}

func TestPredictionClampedToTargetRange(t *testing.T) {
	rng := xrand.New(4)
	m := New(DefaultParams())
	xs, ys := synth(rng, 300, 4)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for i := range xs {
		m.Add(xs[i], ys[i])
		yMin = math.Min(yMin, ys[i])
		yMax = math.Max(yMax, ys[i])
	}
	m.Refit()
	// Far outside the training distribution the prediction must stay within
	// the clamped band — extrapolation safety for the evolutionary ranking.
	f := func(raw []float64) bool {
		x := make([]float64, 4)
		for j := range x {
			if j < len(raw) {
				x[j] = raw[j] * 100
			}
		}
		p := m.Predict(x)
		return p <= yMax+0.5+1e-9 && p >= yMin-0.5-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputPositive(t *testing.T) {
	rng := xrand.New(5)
	m := New(DefaultParams())
	xs, ys := synth(rng, 100, 3)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	m.Refit()
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if v := m.Throughput(x); v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("throughput %v", v)
		}
	}
}

func TestLinearTermGivesLocalGradient(t *testing.T) {
	// A pure linear target: nearby points must get different predictions
	// (the ratio-form RL reward needs non-zero local differences).
	rng := xrand.New(6)
	m := New(DefaultParams())
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		m.Add(x, 2*x[0]+x[1])
	}
	m.Refit()
	a := m.Predict([]float64{0.50, 0.50})
	b := m.Predict([]float64{0.52, 0.50})
	if a == b {
		t.Fatal("no local gradient between nearby points")
	}
	if b < a {
		t.Fatal("gradient direction wrong for increasing feature")
	}
}

func TestConstantTarget(t *testing.T) {
	m := New(DefaultParams())
	for i := 0; i < 50; i++ {
		m.Add([]float64{float64(i % 7), float64(i % 3)}, 4.2)
	}
	m.Refit()
	if p := m.Predict([]float64{1, 1}); math.Abs(p-4.2) > 1e-6 {
		t.Fatalf("constant target predicted %f", p)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := xrand.New(11)
	m := New(DefaultParams())
	xs, ys := synth(rng, 400, 6)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	// Both untrained (base-only) and trained models must agree element-wise.
	hx, _ := synth(rng, 200, 6)
	for pass := 0; pass < 2; pass++ {
		batch := m.PredictBatch(hx)
		if len(batch) != len(hx) {
			t.Fatalf("batch length %d, want %d", len(batch), len(hx))
		}
		for i, x := range hx {
			if one := m.Predict(x); batch[i] != one {
				t.Fatalf("pass %d sample %d: batch %v, Predict %v", pass, i, batch[i], one)
			}
		}
		m.Refit()
	}
}

func TestDimensionCompatibilityGuards(t *testing.T) {
	rng := xrand.New(13)
	m := New(DefaultParams())
	xs, ys := synth(rng, 300, 6)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	m.Refit()
	if m.dim() != 6 {
		t.Fatalf("dim %d, want 6", m.dim())
	}
	// Mismatched samples are dropped, keeping the training matrix
	// rectangular.
	m.Add(make([]float64, 9), 1)
	if m.Len() != 300 {
		t.Fatalf("mismatched Add changed the training set to %d", m.Len())
	}
	// Mismatched queries fall back to the clamped base instead of indexing
	// out of range — in both single and batch form, and in Throughput.
	short, long := make([]float64, 4), make([]float64, 11)
	want := m.Predict(short)
	if m.Predict(long) != want {
		t.Fatal("mismatched queries must agree on the base fallback")
	}
	batch := m.PredictBatch([][]float64{short, xs[0], long})
	if batch[0] != want || batch[2] != want {
		t.Fatal("batch fallback differs from Predict fallback")
	}
	if batch[1] != m.Predict(xs[0]) {
		t.Fatal("conforming sample disturbed by fallback path")
	}
	if m.Throughput(short) != ToThroughput(want) {
		t.Fatal("throughput fallback mismatch")
	}
}

// TestRefitIsPureInSamples pins what lets search.Task fit a training-set
// version at its first read instead of at its commit: Refit is a pure
// function of (Params, stored samples). A model that refits after every batch
// of Adds and one that receives the same Adds and refits once at the end are
// the same model, byte for byte — below MinSamples, at it, past a MaxData
// eviction, on real schedule rows of two feature dimensions.
func TestRefitIsPureInSamples(t *testing.T) {
	const batch = 16
	for _, cat := range []string{"GEMM-S", "C3D"} {
		xs, ys := realRows(cat, 500, 47)
		for _, tc := range []struct{ n, maxData int }{
			{5, 0}, {6, 0}, {64, 0}, {500, 0}, {64, 40}, {500, 200},
		} {
			p := DefaultParams()
			if tc.maxData > 0 {
				p.MaxData = tc.maxData
			}
			eager, lazy := New(p), New(p)
			for i := 0; i < tc.n; i++ {
				eager.Add(xs[i], ys[i])
				lazy.Add(xs[i], ys[i])
				if (i+1)%batch == 0 {
					eager.Refit()
				}
			}
			eager.Refit()
			lazy.Refit()
			if tc.maxData > 0 && lazy.Len() != tc.maxData {
				t.Fatalf("%s n=%d: %d rows stored, want the MaxData %d", cat, tc.n, lazy.Len(), tc.maxData)
			}
			if lazy.Trained() != (tc.n >= p.MinSamples) {
				t.Fatalf("%s n=%d: trained=%v", cat, tc.n, lazy.Trained())
			}
			eb, err := eager.MarshalCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			lb, err := lazy.MarshalCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(eb, lb) {
				t.Fatalf("%s n=%d MaxData=%d: refit-per-batch and refit-once checkpoints differ", cat, tc.n, tc.maxData)
			}
		}
	}
}

// TestRefitCheckpointPinned pins what Refit fits across commits: the sha256
// of the checkpoint after one Refit over real schedule rows of three
// categories (about a sixth of C1D's columns fall in one bin at the root) and
// over uniform rows and rows of constant columns only, each taken before
// tree growth moved onto the binned matrix. A change to how trees are grown that moves one bit fails here, not
// only through a tuning journal's pin.
func TestRefitCheckpointPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows func() ([][]float64, []float64)
		want string
	}{
		{"real-c1d", func() ([][]float64, []float64) { return realRows("C1D", 600, 61) }, "a7b7fc789bfc6b400f9a054b61e1b0fe270f0c0864a8186421bf4ad2e46413c4"},
		{"real-gemm-s", func() ([][]float64, []float64) { return realRows("GEMM-S", 600, 62) }, "d11e76b3888e9f38749bf85a71f74b15243c56e1eed94f3d30b4b42de4db1d2b"},
		{"real-t2d", func() ([][]float64, []float64) { return realRows("T2D", 600, 63) }, "e0c8bd3914a127574d137a394234e4f5259d42ab7c9961aaee985ecba7b0f53f"},
		{"uniform", func() ([][]float64, []float64) { return synth(xrand.New(64), 600, 16) }, "ea8559995a0a389fcc589d1542457203865acc6d37ad4ddc52a981829b1aa0d1"},
		{"constant-columns", func() ([][]float64, []float64) {
			xs, ys := synth(xrand.New(65), 100, 3)
			for _, x := range xs {
				x[0], x[1], x[2] = 1, -2, 0.5 // no column in the binned matrix: 30 one-leaf trees
			}
			return xs, ys
		}, "310ff3185b95a9fc7048bc904b133cd01ae7cc5e43f6b3e04e0189554a396555"},
	} {
		xs, ys := tc.rows()
		m := New(DefaultParams())
		for i := range xs {
			m.Add(xs[i], ys[i])
		}
		m.Refit()
		data, err := m.MarshalCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
			t.Errorf("%s: checkpoint sha256 %s (%d bytes), want %s", tc.name, got, len(data), tc.want)
		}
	}
}

// pearson returns the Pearson correlation coefficient of the paired samples.
func pearson(xs, ys []float64) float64 {
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// spearman returns the Spearman rank correlation of the paired samples,
// TestRankingQuality's measure of a fitted model.
func spearman(xs, ys []float64) float64 { return pearson(ranks(xs), ranks(ys)) }

// ranks converts a sample into average ranks (1-based): ties share the mean
// of the ranks they span.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if r := pearson(xs, []float64{2, 4, 6, 8}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("pearson %f", r)
	}
	if r := pearson(xs, []float64{8, 6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("pearson %f", r)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // monotone but nonlinear
	if r := spearman(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("spearman %f", r)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	if want := []float64{1, 2.5, 2.5, 4}; !slices.Equal(r, want) {
		t.Fatalf("ranks %v want %v", r, want)
	}
}
