package costmodel

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// oracleBestSplit is the retired feature-outer / sample-inner split finder:
// one private histogram per feature, filled by re-walking the node's samples
// and binning each raw value against the feature's edges, then the boundary
// scan, every feature merged in order under strict-greater. Production fills
// the histograms of the binned matrix's columns (the features with two or
// more occupied bins) in one sample-order sweep; this is the ground truth
// that sweep is pinned against.
func oracleBestSplit(m *Model, idx []int, resid []float64) (feat int, thr, gain float64) {
	d := len(m.edges)
	total, totalSq := 0.0, 0.0
	for _, i := range idx {
		total += resid[i]
		totalSq += resid[i] * resid[i]
	}
	n := float64(len(idx))
	baseSSE := totalSq - total*total/n
	feat = -1
	for f := 0; f < d; f++ {
		edges := m.edges[f]
		if len(edges) == 0 {
			continue
		}
		var cnt, sum, sq [numBins]float64
		for _, i := range idx {
			b := sort.SearchFloat64s(edges, m.xs[i][f])
			r := resid[i]
			cnt[b]++
			sum[b] += r
			sq[b] += r * r
		}
		lN, lSum, lSq := 0.0, 0.0, 0.0
		for b := 0; b < len(edges); b++ {
			lN += cnt[b]
			lSum += sum[b]
			lSq += sq[b]
			if lN == 0 || lN == n {
				continue
			}
			rSum, rSq, rN := total-lSum, totalSq-lSq, n-lN
			sse := (lSq - lSum*lSum/lN) + (rSq - rSum*rSum/rN)
			if g := baseSSE - sse; g > gain {
				feat, thr, gain = f, edges[b], g
			}
		}
	}
	if feat < 0 {
		return 0, 0, 0
	}
	return feat, thr, gain
}

// productionSplit calls bestSplit the way grow does, totals taken in idx
// order, and names its split the way the tree records it: feature and edge.
func productionSplit(m *Model, idx []int, resid []float64) (int, float64, float64) {
	total, totalSq := 0.0, 0.0
	for _, i := range idx {
		total += resid[i]
		totalSq += resid[i] * resid[i]
	}
	c, b, gain := m.bestSplit(idx, resid, total, totalSq)
	if gain == 0 {
		return 0, 0, 0
	}
	f := m.cols[c]
	return f, m.edges[f][b], gain
}

// realRows returns n (features, log-throughput) samples of random schedules
// of the first Table-6 operator of a category, the rows a tuning session
// trains on: a few distinct values per feature, so ~4 occupied bins where
// uniform rows fill all 32.
func realRows(cat string, n int, seed uint64) ([][]float64, []float64) {
	sks := sketch.Generate(workload.SuiteFor(cat, 1)[0])
	sim := hardware.NewSimulator(hardware.CPUXeon6226R())
	rng := xrand.New(seed)
	xs, ys := make([][]float64, n), make([]float64, n)
	for i := range xs {
		s := schedule.NewRandom(sks[i%len(sks)], 4, rng)
		xs[i], ys[i] = s.Features(), math.Log(1/sim.Exec(s))
	}
	return xs, ys
}

// kWayRunner spreads jobs over k goroutines round-robin, highest worker
// first, so chunks finish out of index order.
func kWayRunner(k int) Runner {
	return func(n int, fn func(i int)) {
		var wg sync.WaitGroup
		for w := k - 1; w >= 0; w-- {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += k {
					fn(i)
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestBestSplitMatchesOracle pins the one-sweep split finder to the retired
// per-feature scan with ==: same feature, threshold and gain on every node
// shape the tree grower can hand it, serial and through runners of odd width,
// with the histogram fill and boundary scans on the host's lanes and on the
// Go loops.
func TestBestSplitMatchesOracle(t *testing.T) {
	uniX, uniY := synth(xrand.New(41), 700, 24)
	gemmX, gemmY := realRows("GEMM-S", 600, 42)
	c3dX, c3dY := realRows("C3D", 600, 43)
	// Columns 1 and 3 are constant (one bin, no column in the binned
	// matrix); 4 and 5 duplicate column 0, which alone may win the three-way
	// tie; 6 duplicates column 2. Column 7 is constant but for one outlier
	// above every quantile edge: one edge, two occupied bins, a column.
	degX, degY := synth(xrand.New(44), 600, 8)
	for i, x := range degX {
		x[1], x[3], x[4], x[5], x[6], x[7] = 0.5, -1, x[0], x[0], x[2], 0
		if i == 17 {
			x[7], degY[i] = 1, degY[i]+40
		}
	}
	for _, tc := range []struct {
		name   string
		xs     [][]float64
		ys     []float64
		dim    int
		noFeat []int // features that must never be chosen
		cols   []int // the binned matrix's columns, when the case pins them
	}{
		{"uniform", uniX, uniY, 24, nil, nil},
		{"real-gemm-s", gemmX, gemmY, 23, nil, nil},
		{"real-c3d", c3dX, c3dY, 41, nil, nil},
		{"constant-and-duplicated-columns", degX, degY, 8, []int{1, 3, 4, 5, 6}, []int{0, 2, 4, 5, 6, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(DefaultParams())
			for i := range tc.xs {
				m.Add(tc.xs[i], tc.ys[i])
			}
			m.Refit() // leaves the edges, the binned matrix and the final residuals
			if m.dim() != tc.dim {
				t.Fatalf("dim %d, want %d", m.dim(), tc.dim)
			}
			if tc.cols != nil && !slices.Equal(m.cols, tc.cols) {
				t.Fatalf("binned columns %v, want %v", m.cols, tc.cols)
			}
			n := len(tc.xs)
			raw := make([]float64, n) // the first tree's residuals: large, structured
			for i, y := range tc.ys {
				raw[i] = y - m.base
			}
			rng := xrand.New(45)
			subset := func(k int) []int { // k samples in ascending order, as partition keeps them
				pick := rng.Perm(n)[:k]
				in := make([]bool, n)
				for _, i := range pick {
					in[i] = true
				}
				idx := make([]int, 0, k)
				for i := range in {
					if in[i] {
						idx = append(idx, i)
					}
				}
				return idx
			}
			nodes := [][]int{subset(n), subset(1), subset(m.P.MinSamples - 1), subset(m.P.MinSamples)}
			for i := 0; i < 40; i++ {
				nodes = append(nodes, subset(2+rng.Intn(n-2)))
			}
			runners := []Runner{nil, kWayRunner(1), kWayRunner(2), kWayRunner(3)}
			splits := 0
			for _, resid := range [][]float64{raw, append([]float64(nil), m.resid...)} {
				for _, idx := range nodes {
					wf, wt, wg := oracleBestSplit(m, idx, resid)
					if wg > 0 {
						splits++
					}
					for _, f := range tc.noFeat {
						if wg > 0 && wf == f {
							t.Fatalf("oracle split on feature %d, a constant or duplicated column", f)
						}
					}
					for r, run := range runners {
						m.SetRunner(run)
						for _, impl := range kernels {
							undo, ok := useKernels(impl)
							gf, gt, gg := productionSplit(m, idx, resid)
							undo()
							if ok && (gf != wf || gt != wt || gg != wg) {
								t.Fatalf("node of %d samples, runner %d, %s kernels: split (%d, %v, %v), oracle (%d, %v, %v)",
									len(idx), r, impl, gf, gt, gg, wf, wt, wg)
							}
						}
					}
				}
			}
			if splits == 0 {
				t.Fatal("no node had a positive-gain split: the comparison is vacuous")
			}
		})
	}
}
