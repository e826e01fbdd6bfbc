// Package schedule defines the low-level parameter space of the HARL
// reproduction: a Schedule binds a sketch to concrete tile factorizations,
// a compute-at position, a parallel-fusing degree and an unroll depth. The
// four modification types of the paper's Table 3 — tiling, compute-at,
// parallel-loops and auto-unroll — are the action space the actor-critic agent
// (and the evolutionary baseline's mutation operator) explore.
package schedule

import (
	"fmt"
	"math"
	"strings"

	"harl/internal/sketch"
	"harl/internal/xrand"
)

// Schedule is one fully-specified tensor program: a point in the paper's
// parameter search space. For the 1024³ GEMM with 4 tiling levels this space
// has ~180 million points; schedules are connected by the Table-3 actions so
// the RL agent walks between nearby configurations.
type Schedule struct {
	Sk *sketch.Sketch

	// SpatialTiles[a] holds the per-level extents [L0..L3] of spatial axis a
	// of the tiled stage; the product of each row equals the axis extent.
	// L0 is outermost (the parallel candidate), L3 innermost (the vector/
	// unroll candidate).
	SpatialTiles [][]int
	// ReduceTiles[r] holds [R0, R1] for reduction axis r, product = extent.
	ReduceTiles [][]int
	// ComputeAt indexes the sketch's compute-at candidate list (0 = root).
	ComputeAt int
	// ParallelFuse is the number of outermost spatial loops fused into the
	// parallel loop, in [0, NumSpatialAxes].
	ParallelFuse int
	// UnrollIdx indexes the platform's auto-unroll depth list.
	UnrollIdx int
	// NumUnroll is the length of that list (platform-dependent, fixed at
	// sampling time so the schedule stays platform-agnostic afterwards).
	NumUnroll int

	// feats memoizes Features(): every consumer of a schedule — cost-model
	// training, batch scoring, the RL state vector — reads the same vector,
	// and the tuning loops read it many times per candidate. The cache is
	// computed lazily on first read and dropped by Clone, which every
	// mutation path (Apply, Mutate) goes through before changing fields.
	feats []float64
}

// Clone returns a deep copy. The feature cache is not carried over: clones
// exist to be mutated (Apply, Mutate), and a fresh schedule recomputes its
// vector on first read.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.feats = nil
	c.SpatialTiles = make([][]int, len(s.SpatialTiles))
	for i, t := range s.SpatialTiles {
		c.SpatialTiles[i] = append([]int(nil), t...)
	}
	c.ReduceTiles = make([][]int, len(s.ReduceTiles))
	for i, t := range s.ReduceTiles {
		c.ReduceTiles[i] = append([]int(nil), t...)
	}
	return &c
}

// Validate checks the factorization invariants: every tile-level extent is
// ≥ 1 and each row's product equals the corresponding axis extent.
func (s *Schedule) Validate() error {
	main := s.Sk.MainStage()
	if len(s.SpatialTiles) != len(main.Spatial) {
		return fmt.Errorf("schedule: %d spatial tile rows for %d axes", len(s.SpatialTiles), len(main.Spatial))
	}
	for a, row := range s.SpatialTiles {
		if len(row) != sketch.SpatialLevels {
			return fmt.Errorf("schedule: axis %d has %d levels", a, len(row))
		}
		p := 1
		for _, e := range row {
			if e < 1 {
				return fmt.Errorf("schedule: axis %d has level extent %d", a, e)
			}
			p *= e
		}
		if p != main.Spatial[a].Extent {
			return fmt.Errorf("schedule: axis %d product %d != extent %d", a, p, main.Spatial[a].Extent)
		}
	}
	if len(s.ReduceTiles) != len(main.Reduce) {
		return fmt.Errorf("schedule: %d reduce tile rows for %d axes", len(s.ReduceTiles), len(main.Reduce))
	}
	for r, row := range s.ReduceTiles {
		if len(row) != sketch.ReduceLevels {
			return fmt.Errorf("schedule: reduce axis %d has %d levels", r, len(row))
		}
		p := 1
		for _, e := range row {
			if e < 1 {
				return fmt.Errorf("schedule: reduce axis %d has level extent %d", r, e)
			}
			p *= e
		}
		if p != main.Reduce[r].Extent {
			return fmt.Errorf("schedule: reduce axis %d product %d != extent %d", r, p, main.Reduce[r].Extent)
		}
	}
	if s.ComputeAt < 0 || s.ComputeAt >= s.Sk.ComputeAtCandidates() {
		return fmt.Errorf("schedule: compute-at %d out of %d candidates", s.ComputeAt, s.Sk.ComputeAtCandidates())
	}
	if s.ParallelFuse < 0 || s.ParallelFuse > len(main.Spatial) {
		return fmt.Errorf("schedule: parallel fuse %d out of range", s.ParallelFuse)
	}
	if s.NumUnroll < 1 || s.UnrollIdx < 0 || s.UnrollIdx >= s.NumUnroll {
		return fmt.Errorf("schedule: unroll idx %d of %d", s.UnrollIdx, s.NumUnroll)
	}
	return nil
}

// primeFactors returns the prime factorization of n in ascending order.
func primeFactors(n int) []int {
	var fs []int
	for n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	for p := 3; p*p <= n; p += 2 {
		for n%p == 0 {
			fs = append(fs, p)
			n /= p
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// smallestFactor returns the smallest prime factor of n greater than 1, or 0
// if n <= 1.
func smallestFactor(n int) int {
	if n <= 1 {
		return 0
	}
	if n%2 == 0 {
		return 2
	}
	for p := 3; p*p <= n; p += 2 {
		if n%p == 0 {
			return p
		}
	}
	return n
}

// randomFactorization distributes the prime factors of extent uniformly over
// `levels` buckets.
func randomFactorization(extent, levels int, rng *xrand.RNG) []int {
	row := make([]int, levels)
	for i := range row {
		row[i] = 1
	}
	for _, p := range primeFactors(extent) {
		row[rng.Intn(levels)] *= p
	}
	return row
}

// NewRandom samples a uniformly random schedule of the sketch — the paper's
// "initial schedule sampled by randomly filling the sketch".
func NewRandom(sk *sketch.Sketch, numUnroll int, rng *xrand.RNG) *Schedule {
	main := sk.MainStage()
	s := &Schedule{Sk: sk, NumUnroll: numUnroll}
	for _, it := range main.Spatial {
		s.SpatialTiles = append(s.SpatialTiles, randomFactorization(it.Extent, sketch.SpatialLevels, rng))
	}
	for _, it := range main.Reduce {
		s.ReduceTiles = append(s.ReduceTiles, randomFactorization(it.Extent, sketch.ReduceLevels, rng))
	}
	s.ComputeAt = rng.Intn(sk.ComputeAtCandidates())
	s.ParallelFuse = rng.Intn(len(main.Spatial) + 1)
	s.UnrollIdx = rng.Intn(numUnroll)
	return s
}

// --- Tile-loop flattening -------------------------------------------------

// NumTileLoops returns the total number of tiling loops (spatial axes ×
// SpatialLevels plus reduction axes × ReduceLevels).
func (s *Schedule) NumTileLoops() int { return s.Sk.NumTileLoops() }

// loopRef resolves a flat tile-loop index into its (row, level) position.
// Spatial loops come first, then reduction loops.
func (s *Schedule) loopRef(i int) (row *[]int, level int, axis int) {
	ns := len(s.SpatialTiles) * sketch.SpatialLevels
	if i < ns {
		a := i / sketch.SpatialLevels
		return &s.SpatialTiles[a], i % sketch.SpatialLevels, a
	}
	i -= ns
	r := i / sketch.ReduceLevels
	return &s.ReduceTiles[r], i % sketch.ReduceLevels, len(s.SpatialTiles) + r
}

// LoopExtent returns the extent of the flat tile loop i.
func (s *Schedule) LoopExtent(i int) int {
	row, level, _ := s.loopRef(i)
	return (*row)[level]
}

// --- Action space (paper Table 3) ------------------------------------------

// Action is one joint step of the agent: a sub-action per modification type.
// Each modification type includes a dummy choice, so the modification-type
// selection is implicit in the actor's output (paper Section 4.3).
type Action struct {
	Tiling    int // in [0, NumTilingActions)
	ComputeAt int // 0:-1  1:0  2:+1
	Parallel  int // 0:-1  1:0  2:+1
	Unroll    int // 0:-1  1:0  2:+1
}

// DeltaActions is the size of each ±1/stay sub-action space.
const DeltaActions = 3

// NumTilingActions returns num_iters × num_iters + 1 (Appendix A.1): every
// (source, target) tile-loop pair plus the dummy action.
func (s *Schedule) NumTilingActions() int {
	t := s.NumTileLoops()
	return t*t + 1
}

// Apply executes the joint action on a copy of the schedule and reports which
// sub-actions actually changed the configuration. Invalid moves (moving a
// factor across different axes, moving from a unit loop, stepping outside a
// candidate list) are no-ops, like the explicit dummy action.
func (s *Schedule) Apply(a Action) *Schedule {
	n := s.Clone()
	n.applyTiling(a.Tiling)
	n.ComputeAt = clamp(n.ComputeAt+delta(a.ComputeAt), 0, s.Sk.ComputeAtCandidates()-1)
	n.ParallelFuse = clamp(n.ParallelFuse+delta(a.Parallel), 0, len(n.SpatialTiles))
	n.UnrollIdx = clamp(n.UnrollIdx+delta(a.Unroll), 0, n.NumUnroll-1)
	return n
}

func delta(idx int) int { return idx - 1 }

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// applyTiling performs the tile-size modification: divide the smallest prime
// factor from tile loop i and multiply it into tile loop j. Moves across
// different axes would break the per-axis extent product and act as dummies.
func (s *Schedule) applyTiling(action int) {
	t := s.NumTileLoops()
	if action >= t*t || action < 0 {
		return // dummy
	}
	i, j := action/t, action%t
	if i == j {
		return
	}
	rowI, levelI, axisI := s.loopRef(i)
	rowJ, levelJ, axisJ := s.loopRef(j)
	if axisI != axisJ {
		return
	}
	f := smallestFactor((*rowI)[levelI])
	if f == 0 {
		return
	}
	(*rowI)[levelI] /= f
	(*rowJ)[levelJ] *= f
}

// TilingActionFor returns the flat tiling-action index that moves a factor
// from tile loop i to tile loop j.
func (s *Schedule) TilingActionFor(i, j int) int { return i*s.NumTileLoops() + j }

// --- Evolutionary mutation (Ansor baseline) ---------------------------------

// Mutate returns a randomly perturbed copy, used by the evolutionary-search
// baseline: with uniform probability it performs a random tile-factor move,
// resamples one axis factorization, or re-rolls one annotation knob. This is
// the "uniform schedule selection" the paper's Observation 1 examines.
func (s *Schedule) Mutate(rng *xrand.RNG) *Schedule {
	n := s.Clone()
	switch rng.Intn(4) {
	case 0: // random factor move
		t := n.NumTileLoops()
		// A uniformly random (i, j) pair; retry a few times to land a valid move.
		for attempt := 0; attempt < 4; attempt++ {
			i, j := rng.Intn(t), rng.Intn(t)
			before := n.LoopExtent(i)
			n.applyTiling(n.TilingActionFor(i, j))
			if n.LoopExtent(i) != before {
				break
			}
		}
	case 1: // resample one spatial axis factorization
		a := rng.Intn(len(n.SpatialTiles))
		ext := product(n.SpatialTiles[a])
		n.SpatialTiles[a] = randomFactorization(ext, sketch.SpatialLevels, rng)
	case 2: // resample one reduction axis factorization (or a knob if none)
		if len(n.ReduceTiles) > 0 {
			r := rng.Intn(len(n.ReduceTiles))
			ext := product(n.ReduceTiles[r])
			n.ReduceTiles[r] = randomFactorization(ext, sketch.ReduceLevels, rng)
			break
		}
		fallthrough
	case 3: // re-roll one annotation knob
		switch rng.Intn(3) {
		case 0:
			n.ComputeAt = rng.Intn(n.Sk.ComputeAtCandidates())
		case 1:
			n.ParallelFuse = rng.Intn(len(n.SpatialTiles) + 1)
		case 2:
			n.UnrollIdx = rng.Intn(n.NumUnroll)
		}
	}
	return n
}

func product(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// --- Features & identity ----------------------------------------------------

// Key returns a stable 64-bit identity of the schedule's full configuration,
// used for deduplication and for deriving the simulator's deterministic
// measurement texture: xrand.Hash64 of the graph-name hash, the sketch id,
// every tile extent and the three annotation indices, mixed word by word —
// the engines call it inside map lookups and sort comparators, so it must not
// allocate.
func (s *Schedule) Key() uint64 {
	h := xrand.HashMix(xrand.HashSeed, hashString(s.Sk.Graph.Name), uint64(s.Sk.ID))
	for _, row := range s.SpatialTiles {
		for _, e := range row {
			h = xrand.HashMix(h, uint64(e))
		}
	}
	for _, row := range s.ReduceTiles {
		for _, e := range row {
			h = xrand.HashMix(h, uint64(e))
		}
	}
	return xrand.HashMix(h, uint64(s.ComputeAt), uint64(s.ParallelFuse), uint64(s.UnrollIdx))
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// FeatureDim returns the length of the feature vector produced by Features
// for schedules of this sketch (constant across schedules of one subgraph).
func FeatureDim(sk *sketch.Sketch) int {
	return sk.NumSpatialAxes()*sketch.SpatialLevels + sk.NumReduceAxes()*sketch.ReduceLevels +
		3 + // compute-at, parallel-fuse, unroll (normalized)
		6 + // derived shape features
		4 // structural flags: sketch id (normalized), cache-write, rfactor, fused
}

// Features encodes the schedule as a numeric vector for the cost model and
// the actor-critic networks. Tile extents are encoded as log2 values
// normalized by their axis's log2 extent, so features are scale-free in
// [0, 1]; derived features expose the quantities the performance landscape
// actually depends on (parallel chunk count, innermost vector extent, tile
// footprint proxies).
//
// The vector is computed once and memoized: repeat reads return the cached
// slice with zero allocations (pinned by TestFeaturesCachedAllocs). Callers
// must treat the result as read-only — it is shared by every consumer of the
// schedule.
func (s *Schedule) Features() []float64 {
	if s.feats == nil {
		s.feats = s.computeFeatures()
	}
	return s.feats
}

// computeFeatures builds the feature vector from the current configuration.
func (s *Schedule) computeFeatures() []float64 {
	out := make([]float64, 0, FeatureDim(s.Sk))
	main := s.Sk.MainStage()
	for a, row := range s.SpatialTiles {
		den := math.Log2(math.Max(2, float64(main.Spatial[a].Extent)))
		for _, e := range row {
			out = append(out, math.Log2(float64(e))/den)
		}
	}
	for r, row := range s.ReduceTiles {
		den := math.Log2(math.Max(2, float64(main.Reduce[r].Extent)))
		for _, e := range row {
			out = append(out, math.Log2(float64(e))/den)
		}
	}
	out = append(out,
		norm(s.ComputeAt, s.Sk.ComputeAtCandidates()-1),
		norm(s.ParallelFuse, len(s.SpatialTiles)),
		norm(s.UnrollIdx, s.NumUnroll-1),
	)
	// Derived features.
	par := 1.0
	for a := 0; a < s.ParallelFuse && a < len(s.SpatialTiles); a++ {
		par *= float64(s.SpatialTiles[a][0])
	}
	inner := 1.0
	if n := len(s.SpatialTiles); n > 0 {
		inner = float64(s.SpatialTiles[n-1][sketch.SpatialLevels-1])
	}
	micro, l2tile := 1.0, 1.0
	for _, row := range s.SpatialTiles {
		micro *= float64(row[sketch.SpatialLevels-1])
		l2tile *= float64(row[sketch.SpatialLevels-2] * row[sketch.SpatialLevels-1])
	}
	r1, r0 := 1.0, 1.0
	for _, row := range s.ReduceTiles {
		r0 *= float64(row[0])
		r1 *= float64(row[1])
	}
	out = append(out,
		math.Log2(par+1)/32,
		math.Log2(inner+1)/16,
		math.Log2(micro+1)/32,
		math.Log2(l2tile+1)/32,
		math.Log2(r0+1)/24,
		math.Log2(r1+1)/24,
	)
	out = append(out,
		norm(s.Sk.ID, 7),
		boolF(s.Sk.CacheWrite),
		boolF(s.Sk.RFactor),
		boolF(s.Sk.Decisions[s.Sk.Main] == sketch.TiledFused),
	)
	return out
}

func norm(x, maxV int) float64 {
	if maxV <= 0 {
		return 0
	}
	v := float64(x) / float64(maxV)
	if v > 1 {
		v = 1
	}
	return v
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// String renders the schedule compactly for logs and examples.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sketch#%d", s.Sk.ID)
	for a, row := range s.SpatialTiles {
		fmt.Fprintf(&b, " s%d=%v", a, row)
	}
	for r, row := range s.ReduceTiles {
		fmt.Fprintf(&b, " r%d=%v", r, row)
	}
	fmt.Fprintf(&b, " ca=%d par=%d unroll=%d", s.ComputeAt, s.ParallelFuse, s.UnrollIdx)
	return b.String()
}
