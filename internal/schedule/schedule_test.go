package schedule

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"harl/internal/sketch"
	"harl/internal/workload"
	"harl/internal/xrand"
)

func gemmSketch(t *testing.T) *sketch.Sketch {
	t.Helper()
	return sketch.Generate(workload.GEMM("g", 1, 1024, 512, 768))[0]
}

func TestPrimeFactors(t *testing.T) {
	cases := map[int][]int{
		1:    nil,
		2:    {2},
		12:   {2, 2, 3},
		97:   {97},
		1024: {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		2310: {2, 3, 5, 7, 11},
	}
	for n, want := range cases {
		got := primeFactors(nil, n)
		if len(got) != len(want) {
			t.Fatalf("primeFactors(%d) = %v", n, got)
		}
		prod := 1
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("primeFactors(%d) = %v want %v", n, got, want)
			}
			prod *= got[i]
		}
		if n > 1 && prod != n {
			t.Fatalf("factor product %d != %d", prod, n)
		}
	}
}

func TestNewRandomValid(t *testing.T) {
	rng := xrand.New(1)
	sk := gemmSketch(t)
	for i := 0; i < 200; i++ {
		s := NewRandom(sk, 4, rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("random schedule %d invalid: %v", i, err)
		}
	}
}

// Property: every Table-3 action application preserves the factorization
// invariant (per-axis products unchanged, all knobs in range).
func TestApplyPreservesInvariants(t *testing.T) {
	rng := xrand.New(2)
	sk := gemmSketch(t)
	f := func(tilingRaw uint16, ca, par, unroll uint8) bool {
		s := NewRandom(sk, 4, rng)
		a := Action{
			Tiling:    int(tilingRaw) % s.NumTilingActions(),
			ComputeAt: int(ca) % DeltaActions,
			Parallel:  int(par) % DeltaActions,
			Unroll:    int(unroll) % DeltaActions,
		}
		n := s.Apply(a)
		return n.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDoesNotMutateOriginal(t *testing.T) {
	rng := xrand.New(3)
	s := NewRandom(gemmSketch(t), 4, rng)
	key := s.Key()
	for a := 0; a < s.NumTilingActions(); a += 7 {
		s.Apply(Action{Tiling: a, ComputeAt: 2, Parallel: 0, Unroll: 2})
	}
	if s.Key() != key {
		t.Fatal("Apply mutated the receiver")
	}
}

func TestTilingMoveMechanics(t *testing.T) {
	rng := xrand.New(4)
	sk := gemmSketch(t)
	s := NewRandom(sk, 4, rng)
	// Force a known factorization on axis 0 (extent 1024).
	s.SpatialTiles[0] = []int{1024, 1, 1, 1}
	// Move smallest factor (2) from loop 0 (axis0 level0) to loop 3 (level3).
	n := s.Apply(Action{Tiling: s.TilingActionFor(0, 3), ComputeAt: 1, Parallel: 1, Unroll: 1})
	if n.SpatialTiles[0][0] != 512 || n.SpatialTiles[0][3] != 2 {
		t.Fatalf("move failed: %v", n.SpatialTiles[0])
	}
	// Cross-axis move must be a no-op.
	crossAxis := s.TilingActionFor(0, sketch.SpatialLevels) // axis0 L0 -> axis1 L0
	n2 := s.Apply(Action{Tiling: crossAxis, ComputeAt: 1, Parallel: 1, Unroll: 1})
	if n2.SpatialTiles[0][0] != 1024 {
		t.Fatal("cross-axis move must not change extents")
	}
	// Moving from a unit loop must be a no-op.
	n3 := s.Apply(Action{Tiling: s.TilingActionFor(1, 0), ComputeAt: 1, Parallel: 1, Unroll: 1})
	if n3.SpatialTiles[0][0] != 1024 || n3.SpatialTiles[0][1] != 1 {
		t.Fatal("unit-loop move must be a no-op")
	}
	// The dummy action, the last tiling action, changes nothing.
	n4 := s.Apply(Action{Tiling: s.NumTilingActions() - 1, ComputeAt: 1, Parallel: 1, Unroll: 1})
	if n4.Key() != s.Key() {
		t.Fatal("dummy action changed the schedule")
	}
}

func TestKnobClamping(t *testing.T) {
	rng := xrand.New(5)
	s := NewRandom(gemmSketch(t), 4, rng)
	s.UnrollIdx = 0
	n := s.Apply(Action{Tiling: s.NumTilingActions() - 1, ComputeAt: 0, Parallel: 0, Unroll: 0})
	if n.UnrollIdx != 0 {
		t.Fatal("unroll must clamp at 0")
	}
	s.UnrollIdx = 3
	n = s.Apply(Action{Tiling: s.NumTilingActions() - 1, ComputeAt: 2, Parallel: 2, Unroll: 2})
	if n.UnrollIdx != 3 {
		t.Fatal("unroll must clamp at max")
	}
	if n.ParallelFuse > len(n.SpatialTiles) {
		t.Fatal("parallel fuse out of range")
	}
}

func TestNumTilingActions(t *testing.T) {
	rng := xrand.New(6)
	s := NewRandom(gemmSketch(t), 4, rng)
	// GEMM: 2 spatial × 4 + 1 reduce × 2 = 10 loops → 101 actions.
	if got := s.NumTilingActions(); got != 10*10+1 {
		t.Fatalf("tiling actions %d want 101", got)
	}
}

// Property: mutation always yields a valid schedule of the same sketch.
func TestMutatePreservesValidity(t *testing.T) {
	rng := xrand.New(7)
	sk := gemmSketch(t)
	s := NewRandom(sk, 4, rng)
	for i := 0; i < 2000; i++ {
		s = s.Mutate(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("mutation %d invalid: %v", i, err)
		}
	}
}

func TestFeaturesStableLength(t *testing.T) {
	rng := xrand.New(8)
	for _, g := range []interface{ Name() string }{} {
		_ = g
	}
	for _, sk := range sketch.Generate(workload.Conv2DReLU("c", 1, 1, 56, 56, 64, 64, 3, 1, 1)) {
		want := FeatureDim(sk)
		for i := 0; i < 50; i++ {
			s := NewRandom(sk, 4, rng)
			f := s.Features()
			if len(f) != want {
				t.Fatalf("feature length %d want %d", len(f), want)
			}
			for j, v := range f {
				if v != v || v < -1e6 || v > 1e6 {
					t.Fatalf("feature %d not finite: %v", j, v)
				}
			}
		}
	}
}

// TestFeaturesCacheCorrect pins the memoized Features() against a fresh
// computation across the mutation paths: the cache must never serve a stale
// vector after Apply or Mutate produced a new schedule.
func TestFeaturesCacheCorrect(t *testing.T) {
	rng := xrand.New(20)
	sk := gemmSketch(t)
	s := NewRandom(sk, 4, rng)
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200; i++ {
		if !same(s.Features(), s.computeFeatures()) {
			t.Fatalf("step %d: cached features differ from fresh computation", i)
		}
		if i%2 == 0 {
			s = s.Mutate(rng)
		} else {
			s = s.Apply(Action{
				Tiling:    rng.Intn(s.NumTilingActions()),
				ComputeAt: rng.Intn(DeltaActions),
				Parallel:  rng.Intn(DeltaActions),
				Unroll:    rng.Intn(DeltaActions),
			})
		}
	}
}

// TestFeaturesCachedAllocs pins the memo: re-reading a schedule's features
// allocates nothing (the first read computes and caches the vector).
func TestFeaturesCachedAllocs(t *testing.T) {
	rng := xrand.New(21)
	s := NewRandom(gemmSketch(t), 4, rng)
	if n := totalAllocs(100, func() { s.Features() }); n != 0 {
		t.Fatalf("100 cached Features() reads allocate %d objects, want 0", n)
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	rng := xrand.New(9)
	sk := gemmSketch(t)
	seen := map[uint64]bool{}
	dup := 0
	for i := 0; i < 2000; i++ {
		k := NewRandom(sk, 4, rng).Key()
		if seen[k] {
			dup++
		}
		seen[k] = true
	}
	// Random 1024×512×768 factorizations rarely repeat; hash collisions
	// would show up as a large duplicate count.
	if dup > 100 {
		t.Fatalf("%d duplicate keys in 2000 samples", dup)
	}
}

func TestKeyIgnoresNothing(t *testing.T) {
	rng := xrand.New(10)
	s := NewRandom(gemmSketch(t), 4, rng)
	k := s.Key()
	c := s.Clone()
	c.UnrollIdx = (c.UnrollIdx + 1) % c.NumUnroll
	if c.Key() == k {
		t.Fatal("unroll change must change the key")
	}
	c2 := s.Clone()
	c2.ParallelFuse = (c2.ParallelFuse + 1) % (len(c2.SpatialTiles) + 1)
	if c2.Key() == k {
		t.Fatal("parallel change must change the key")
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := xrand.New(11)
	s := NewRandom(gemmSketch(t), 4, rng)
	c := s.Clone()
	c.SpatialTiles[0][0] *= 2
	if s.SpatialTiles[0][0] == c.SpatialTiles[0][0] {
		t.Fatal("clone shares tile storage")
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	rng := xrand.New(12)
	s := NewRandom(gemmSketch(t), 4, rng)
	s.SpatialTiles[0][0]++
	if s.Validate() == nil {
		t.Fatal("corrupted product must fail validation")
	}
	s2 := NewRandom(gemmSketch(t), 4, rng)
	s2.UnrollIdx = 99
	if s2.Validate() == nil {
		t.Fatal("out-of-range unroll must fail validation")
	}
}

func TestStringContainsSketch(t *testing.T) {
	rng := xrand.New(13)
	s := NewRandom(gemmSketch(t), 4, rng)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestKeyIsHash64OfParameterWords pins the streaming Key against the
// definition it replaced — xrand.Hash64 over a materialized word slice — on
// random schedules of every Table-6 operator category (every journal and
// measurement texture hangs off these values), and pins that it allocates
// nothing, hashed or memoized: the engines call it inside map lookups and
// sort comparators.
func TestKeyIsHash64OfParameterWords(t *testing.T) {
	rng := xrand.New(71)
	var last *Schedule
	for _, cat := range []string{"GEMM-S", "GEMM-M", "GEMM-L", "C1D", "C2D", "C3D", "T2D"} {
		sks := sketch.Generate(workload.SuiteFor(cat, 1)[0])
		for i := 0; i < 1000; i++ {
			s := NewRandom(sks[rng.Intn(len(sks))], 4, rng)
			if got, want := s.Key(), freshKey(s); got != want {
				t.Fatalf("%s schedule %d: Key %#x, Hash64 of its words %#x", cat, i, got, want)
			}
			last = s
		}
	}
	// Clearing the memo inside the measured call makes every run hash the
	// schedule afresh, the path each new candidate's first lookup takes.
	if n := totalAllocs(100, func() { last.key = 0; last.Key() }); n != 0 {
		t.Fatalf("hashing a schedule's Key 100 times allocates %d objects, want 0", n)
	}
	if n := totalAllocs(100, func() { last.Key() }); n != 0 {
		t.Fatalf("100 memoized Keys allocate %d objects, want 0", n)
	}
}

// freshKey is Key's definition, computed from the schedule's fields now:
// xrand.Hash64 over a materialized slice of its parameter words.
func freshKey(s *Schedule) uint64 {
	words := []uint64{hashString(s.Sk.Graph.Name), uint64(s.Sk.ID)}
	for _, row := range append(append([][]int(nil), s.SpatialTiles...), s.ReduceTiles...) {
		for _, e := range row {
			words = append(words, uint64(e))
		}
	}
	words = append(words, uint64(s.ComputeAt), uint64(s.ParallelFuse), uint64(s.UnrollIdx))
	return xrand.Hash64(words...)
}

// snapshot is a deep copy of a schedule's tile rows, identity and features,
// taken to check later that nothing derived from the schedule changed it.
type snapshot struct {
	rows  [][]int
	key   uint64
	feats []float64
}

func snap(s *Schedule) snapshot {
	var rows [][]int
	for _, r := range append(append([][]int(nil), s.SpatialTiles...), s.ReduceTiles...) {
		rows = append(rows, append([]int(nil), r...))
	}
	return snapshot{rows, s.Key(), append([]float64(nil), s.Features()...)}
}

func (want snapshot) check(t *testing.T, what string, s *Schedule) {
	t.Helper()
	got := snap(s)
	for i := range want.rows {
		if !slices.Equal(got.rows[i], want.rows[i]) {
			t.Fatalf("%s: row %d is %v, was %v", what, i, got.rows[i], want.rows[i])
		}
	}
	if got.key != want.key || got.key != freshKey(s) {
		t.Fatalf("%s: Key %#x, was %#x, fresh hash %#x", what, got.key, want.key, freshKey(s))
	}
	if !slices.Equal(got.feats, want.feats) || !slices.Equal(got.feats, s.computeFeatures()) {
		t.Fatalf("%s: Features moved", what)
	}
}

// TestMemosAndFlatClone pins the memo and flat-clone contract over random
// schedules of several Table-6 operators and every path that makes one
// (NewRandom, Clone, Apply with every tiling action, Mutate,
// UnmarshalSteps): a schedule's memoized Key and Features equal a fresh
// computation from its fields; deriving a child, then changing the child
// (through further derivations, row writes and appends), never changes the
// parent's rows, Key or Features; and no row or header of a clone can grow
// into its neighbour in the shared backing array.
func TestMemosAndFlatClone(t *testing.T) {
	rng := xrand.New(72)
	for _, cat := range []string{"GEMM-S", "C1D", "C2D", "C3D", "T2D"} {
		sks := sketch.Generate(workload.SuiteFor(cat, 1)[0])
		for _, sk := range sks {
			parent := NewRandom(sk, 4, rng)
			var kids []*Schedule
			for a := 0; a < parent.NumTilingActions(); a++ {
				kids = append(kids, parent.Apply(Action{Tiling: a, ComputeAt: rng.Intn(DeltaActions),
					Parallel: rng.Intn(DeltaActions), Unroll: rng.Intn(DeltaActions)}))
			}
			for i := 0; i < 64; i++ {
				kids = append(kids, parent.Mutate(rng))
			}
			back, err := UnmarshalSteps(sks, parent.MarshalSteps())
			if err != nil {
				t.Fatal(err)
			}
			kids = append(kids, parent.Clone(), back)
			want := snap(parent)
			want.check(t, cat+" parent", parent)
			for i, kid := range kids {
				snap(kid).check(t, cat+" child", kid)
				grandkid := kid.Mutate(rng).Apply(Action{Tiling: rng.Intn(kid.NumTilingActions()), ComputeAt: 2, Parallel: 2, Unroll: 2})
				snap(grandkid).check(t, cat+" grandchild", grandkid)
				if i%2 == 0 {
					continue
				}
				// Grow every row and header of a clone in place: its
				// neighbours, and the parent, must not see it.
				c := kid.Clone()
				sibling := snap(c)
				c.SpatialTiles = append(c.SpatialTiles, []int{-1})
				if len(c.ReduceTiles) > 0 && c.ReduceTiles[0][0] == -1 {
					t.Fatalf("%s: SpatialTiles grew into ReduceTiles", cat)
				}
				c.SpatialTiles = c.SpatialTiles[:len(c.SpatialTiles)-1]
				for _, rows := range [][][]int{c.SpatialTiles, c.ReduceTiles} {
					for r := range rows {
						if cap(rows[r]) != len(rows[r]) {
							t.Fatalf("%s: row %d has room to grow: len %d cap %d", cat, r, len(rows[r]), cap(rows[r]))
						}
						_ = append(rows[r], -1)
					}
				}
				sibling.check(t, cat+" grown clone", c)
				for _, rows := range [][][]int{c.SpatialTiles, c.ReduceTiles} {
					for r := range rows {
						rows[r][0] = -1
					}
				}
				snap(kid).check(t, cat+" clone's source", kid)
			}
			want.check(t, cat+" parent after its children", parent)
		}
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

// TestCloneAllocs pins Clone (and so Apply) at three allocations whatever
// the axis count: the struct, the row headers and one backing array.
func TestCloneAllocs(t *testing.T) {
	s := NewRandom(sketch.Generate(workload.SuiteFor("C3D", 1)[0])[0], 4, xrand.New(73))
	if n := totalAllocs(100, func() { s.Clone() }); n != 3*100 {
		t.Fatalf("100 Clones allocate %d objects, want 300", n)
	}
	a := Action{Tiling: s.TilingActionFor(0, 1), ComputeAt: 2, Parallel: 0, Unroll: 1}
	if n := totalAllocs(100, func() { s.Apply(a) }); n != 3*100 {
		t.Fatalf("100 Applies allocate %d objects, want 300", n)
	}
}

// TestMutateAllocs pins Mutate at its Clone's three allocations on every
// branch: a resampled factorization is written into the clone's own row.
func TestMutateAllocs(t *testing.T) {
	s := NewRandom(sketch.Generate(workload.SuiteFor("C3D", 1)[0])[0], 4, xrand.New(74))
	rng := xrand.New(75)
	if n := totalAllocs(1000, func() { s.Mutate(rng) }); n != 3*1000 {
		t.Fatalf("1000 Mutates allocate %d objects, want 3000", n)
	}
}
