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
	"harl/internal/texpr"
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

	// feats memoizes Features() and key Key() (0: not hashed yet), which
	// cost-model training, scoring, the RL state and the engines' map lookups
	// read many times per candidate. Both fill on first read, so goroutines
	// share a schedule only once it was read (MeasureBatch hashes a batch
	// before its pool measures it); Clone, which every mutation path (Apply,
	// Mutate) goes through first, drops them.
	feats []float64
	key   uint64
}

// Clone returns a deep copy without the memos: clones exist to be mutated
// (Apply, Mutate). Its tile rows share one backing array, and each row, like
// SpatialTiles ahead of ReduceTiles in their one header slice, is capped at
// its length, so an append reallocates instead of running into a neighbour.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.feats, c.key = nil, 0
	ns, n := len(s.SpatialTiles), 0
	rows := append(append(make([][]int, 0, ns+len(s.ReduceTiles)), s.SpatialTiles...), s.ReduceTiles...)
	for _, r := range rows {
		n += len(r)
	}
	flat := make([]int, 0, n)
	for i, r := range rows {
		flat = append(flat, r...)
		rows[i] = flat[len(flat)-len(r) : len(flat) : len(flat)]
	}
	c.SpatialTiles, c.ReduceTiles = rows[:ns:ns], rows[ns:]
	return &c
}

// Validate checks the factorization invariants: every tile-level extent is
// ≥ 1 and each row's product equals the corresponding axis extent.
func (s *Schedule) Validate() error {
	main := s.Sk.MainStage()
	if err := checkRows("spatial", "axis", s.SpatialTiles, main.Spatial, sketch.SpatialLevels); err != nil {
		return err
	}
	if err := checkRows("reduce", "reduce axis", s.ReduceTiles, main.Reduce, sketch.ReduceLevels); err != nil {
		return err
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

// checkRows checks one kind of tile rows against the stage's axes of that
// kind: a row of `levels` extents ≥ 1 per axis, multiplying to its extent.
func checkRows(kind, axis string, rows [][]int, its []texpr.Iter, levels int) error {
	if len(rows) != len(its) {
		return fmt.Errorf("schedule: %d %s tile rows for %d axes", len(rows), kind, len(its))
	}
	for a, row := range rows {
		if len(row) != levels {
			return fmt.Errorf("schedule: %s %d has %d levels", axis, a, len(row))
		}
		p := 1
		for _, e := range row {
			if e < 1 {
				return fmt.Errorf("schedule: %s %d has level extent %d", axis, a, e)
			}
			p *= e
		}
		if p != its[a].Extent {
			return fmt.Errorf("schedule: %s %d product %d != extent %d", axis, a, p, its[a].Extent)
		}
	}
	return nil
}

// primeFactors appends the prime factorization of n, in ascending order, to
// fs.
func primeFactors(fs []int, n int) []int {
	for n > 1 && n%2 == 0 {
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

// randomFactorization distributes the prime factors of extent uniformly over
// the levels of row, in place, and returns row. The factors go through a
// stack buffer: an int has fewer than 64 of them.
func randomFactorization(row []int, extent int, rng *xrand.RNG) []int {
	for i := range row {
		row[i] = 1
	}
	var buf [64]int
	for _, p := range primeFactors(buf[:0], extent) {
		row[rng.Intn(len(row))] *= p
	}
	return row
}

// NewRandom samples a uniformly random schedule of the sketch — the paper's
// "initial schedule sampled by randomly filling the sketch".
func NewRandom(sk *sketch.Sketch, numUnroll int, rng *xrand.RNG) *Schedule {
	main := sk.MainStage()
	s := &Schedule{Sk: sk, NumUnroll: numUnroll}
	for _, it := range main.Spatial {
		s.SpatialTiles = append(s.SpatialTiles, randomFactorization(make([]int, sketch.SpatialLevels), it.Extent, rng))
	}
	for _, it := range main.Reduce {
		s.ReduceTiles = append(s.ReduceTiles, randomFactorization(make([]int, sketch.ReduceLevels), it.Extent, rng))
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
	var buf [64]int
	fs := primeFactors(buf[:0], (*rowI)[levelI])
	if len(fs) == 0 {
		return
	}
	(*rowI)[levelI] /= fs[0]
	(*rowJ)[levelJ] *= fs[0]
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
			row, level, _ := n.loopRef(i)
			before := (*row)[level]
			n.applyTiling(n.TilingActionFor(i, j))
			if (*row)[level] != before {
				break
			}
		}
	case 1: // resample one spatial axis factorization
		row := n.SpatialTiles[rng.Intn(len(n.SpatialTiles))]
		randomFactorization(row, product(row), rng)
	case 2: // resample one reduction axis factorization (or a knob if none)
		if len(n.ReduceTiles) > 0 {
			row := n.ReduceTiles[rng.Intn(len(n.ReduceTiles))]
			randomFactorization(row, product(row), rng)
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
// allocate. It is hashed once and memoized (a hash of 0 is recomputed).
func (s *Schedule) Key() uint64 {
	if s.key != 0 {
		return s.key
	}
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
	s.key = xrand.HashMix(h, uint64(s.ComputeAt), uint64(s.ParallelFuse), uint64(s.UnrollIdx))
	return s.key
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
