package costmodel

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"harl/internal/stats"
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
	if rho := stats.Spearman(pred, hy); rho < 0.9 {
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

func TestMaxDataEviction(t *testing.T) {
	p := DefaultParams()
	p.MaxData = 50
	m := New(p)
	for i := 0; i < 120; i++ {
		m.Add([]float64{float64(i)}, float64(i))
	}
	if m.Len() != 50 {
		t.Fatalf("len %d want 50", m.Len())
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
	if m.Dim() != 6 {
		t.Fatalf("dim %d, want 6", m.Dim())
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
