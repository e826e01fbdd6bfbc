package search

import (
	"math"
	"sort"

	"harl/internal/xrand"
)

const (
	// minBatch is the exploration floor: a round never measures fewer than
	// this many representatives (half a default round), so model-error
	// feedback keeps flowing even when the model looks accurate.
	minBatch = 8
	// errWindow is how many recent predicted-vs-measured relative errors the
	// sampler averages to decide how hard to shrink. Until the window fills,
	// every fresh candidate is measured.
	errWindow = 32
)

// errScale maps the window-mean relative model error to the measured
// fraction of each batch (fraction = mean/errScale, capped at 1). Individual
// errors are clamped to 1 before averaging, so with errScale above 1 even a
// fully distrusted model shrinks a little once the window fills — the
// minBatch floor, not the scale, is what guards exploration. Calibrated on
// the committed GEMM workload: the model's window-mean error declines from
// ~0.9 (barely trained) to ~0.4 (late rounds), which this scale turns into
// measuring roughly three quarters down to a third of each round.
const errScale = 1.2

// AdaptiveSampler is adaptive measurement sampling (Ahn et al.: cluster the
// candidates a round wants measured and send only cluster representatives to
// hardware). It holds the per-task sampling state: a ring of recent
// predicted-vs-measured relative errors. All decisions are pure functions of
// (committed errors, batch feature vectors, the task RNG stream), so sampling
// preserves the byte-identical-journal contract across worker counts.
type AdaptiveSampler struct {
	errs []float64
	next int
	full bool
}

// observe records one relative throughput error |1 - predicted/measured|.
func (a *AdaptiveSampler) observe(relErr float64) {
	if math.IsNaN(relErr) || math.IsInf(relErr, 0) {
		return
	}
	if relErr > 1 {
		relErr = 1
	}
	if len(a.errs) < errWindow {
		a.errs = append(a.errs, relErr)
		a.full = len(a.errs) == errWindow
		return
	}
	a.errs[a.next] = relErr
	a.next = (a.next + 1) % errWindow
}

// target returns how many of n fresh candidates to measure: all of them until
// the error window fills, then a fraction proportional to the window-mean
// error, floored at minBatch.
func (a *AdaptiveSampler) target(n int) int {
	if !a.full || n <= minBatch {
		return n
	}
	sum := 0.0
	for _, e := range a.errs {
		sum += e
	}
	frac := (sum / float64(len(a.errs))) / errScale
	if frac > 1 {
		frac = 1
	}
	k := int(math.Ceil(frac * float64(n)))
	if k < minBatch {
		k = minBatch
	}
	if k > n {
		k = n
	}
	return k
}

// clusterReps groups n feature vectors into k clusters with a deterministic
// k-means (one RNG draw seeds the first center, the rest come from
// farthest-point init; a fixed number of Lloyd iterations; every tie broken
// by lowest index) and returns the representative row of each cluster plus
// each row's cluster assignment. The representative is the member with the
// highest score (the cost model's predicted throughput — measuring the
// candidate the search believes in keeps best-so-far quality from collapsing
// to cluster centroids); with nil scores it falls back to the member closest
// to its centroid. Determinism is the load-bearing property: for a fixed RNG
// stream and input order the partition is byte-for-byte reproducible, which
// is what lets sampled runs keep the workers=1 ≡ workers=N journal contract.
func clusterReps(feats [][]float64, scores []float64, k int, rng *xrand.RNG) (reps []int, assign []int) {
	n := len(feats)
	if k >= n {
		reps = make([]int, n)
		assign = make([]int, n)
		for i := range reps {
			reps[i], assign[i] = i, i
		}
		return reps, assign
	}
	norm := normalize(feats)
	centers := make([][]float64, 0, k)
	chosen := rng.Intn(n)
	centers = append(centers, append([]float64(nil), norm[chosen]...))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(norm[i], centers[0])
	}
	for len(centers) < k {
		far, farD := 0, -1.0
		for i, d := range minDist {
			if d > farD {
				far, farD = i, d
			}
		}
		c := append([]float64(nil), norm[far]...)
		centers = append(centers, c)
		for i := range minDist {
			if d := sqDist(norm[i], c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	assign = make([]int, n)
	const lloydIters = 4
	for iter := 0; iter < lloydIters; iter++ {
		counts := make([]int, k)
		for i := range norm {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(norm[i], centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			counts[best]++
		}
		// An emptied cluster steals the row farthest from its assigned
		// centroid, so exactly k clusters stay populated.
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				continue
			}
			far, farD := -1, -1.0
			for i := range norm {
				if counts[assign[i]] <= 1 {
					continue
				}
				if d := sqDist(norm[i], centers[assign[i]]); d > farD {
					far, farD = i, d
				}
			}
			if far < 0 {
				continue
			}
			counts[assign[far]]--
			assign[far] = c
			counts[c] = 1
		}
		dim := len(norm[0])
		for c := range centers {
			if counts[c] == 0 {
				continue
			}
			mean := make([]float64, dim)
			for i := range norm {
				if assign[i] != c {
					continue
				}
				for d, v := range norm[i] {
					mean[d] += v
				}
			}
			for d := range mean {
				mean[d] /= float64(counts[c])
			}
			centers[c] = mean
		}
	}
	reps = make([]int, 0, k)
	for c := 0; c < k; c++ {
		rep, repD := -1, math.Inf(1)
		for i := range norm {
			if assign[i] != c {
				continue
			}
			if scores != nil {
				if rep < 0 || scores[i] > scores[rep] {
					rep = i
				}
				continue
			}
			if d := sqDist(norm[i], centers[c]); d < repD {
				rep, repD = i, d
			}
		}
		if rep >= 0 {
			reps = append(reps, rep)
		}
	}
	// Rows in a repless (emptied) cluster fold into the nearest surviving
	// representative so every row backfills from a real measurement.
	sort.Ints(reps)
	for i := range norm {
		if hasRep(reps, assign, i) {
			continue
		}
		best, bestD := reps[0], math.Inf(1)
		for _, r := range reps {
			if d := sqDist(norm[i], norm[r]); d < bestD {
				best, bestD = r, d
			}
		}
		assign[i] = assign[best]
	}
	return reps, assign
}

// hasRep reports whether row i's cluster has a representative in reps.
func hasRep(reps []int, assign []int, i int) bool {
	for _, r := range reps {
		if assign[r] == assign[i] {
			return true
		}
	}
	return false
}

// normalize rescales each feature dimension to [0,1] over the batch so
// k-means distances are not dominated by large-magnitude dimensions.
func normalize(feats [][]float64) [][]float64 {
	dim := len(feats[0])
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	copy(lo, feats[0])
	copy(hi, feats[0])
	for _, f := range feats[1:] {
		for d, v := range f {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	out := make([][]float64, len(feats))
	for i, f := range feats {
		row := make([]float64, dim)
		for d, v := range f {
			if span := hi[d] - lo[d]; span > 0 {
				row[d] = (v - lo[d]) / span
			}
		}
		out[i] = row
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for d := range a {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}
