package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2), 1e-12) {
		t.Fatalf("std = %f", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N=%d", s.N)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := quantile(sorted, 0.5); q != 5 {
		t.Fatalf("median of {0,10} = %f", q)
	}
	if q := quantile(sorted, 0); q != 0 {
		t.Fatalf("q0 = %f", q)
	}
	if q := quantile(sorted, 1); q != 10 {
		t.Fatalf("q1 = %f", q)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1) // under
	h.Add(11) // over
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under/over %d/%d", h.Under, h.Over)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count %d", i, c)
		}
	}
}

func TestQuantileProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		// min ≤ p25 ≤ p50 ≤ p75 ≤ max must always hold.
		return s.Min <= s.P25 && s.P25 <= s.P50 && s.P50 <= s.P75 && s.P75 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
