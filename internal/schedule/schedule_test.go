package schedule

import (
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
		got := primeFactors(n)
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
	if n := testing.AllocsPerRun(100, func() { s.Features() }); n != 0 {
		t.Fatalf("cached Features() allocates %.1f objects per read, want 0", n)
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
// nothing: the engines call it inside map lookups and sort comparators.
func TestKeyIsHash64OfParameterWords(t *testing.T) {
	rng := xrand.New(71)
	var last *Schedule
	for _, cat := range []string{"GEMM-S", "GEMM-M", "GEMM-L", "C1D", "C2D", "C3D", "T2D"} {
		sks := sketch.Generate(workload.SuiteFor(cat, 1)[0])
		for i := 0; i < 1000; i++ {
			s := NewRandom(sks[rng.Intn(len(sks))], 4, rng)
			words := []uint64{hashString(s.Sk.Graph.Name), uint64(s.Sk.ID)}
			for _, row := range s.SpatialTiles {
				for _, e := range row {
					words = append(words, uint64(e))
				}
			}
			for _, row := range s.ReduceTiles {
				for _, e := range row {
					words = append(words, uint64(e))
				}
			}
			words = append(words, uint64(s.ComputeAt), uint64(s.ParallelFuse), uint64(s.UnrollIdx))
			if got, want := s.Key(), xrand.Hash64(words...); got != want {
				t.Fatalf("%s schedule %d: Key %#x, Hash64 of its words %#x", cat, i, got, want)
			}
			last = s
		}
	}
	if n := testing.AllocsPerRun(100, func() { last.Key() }); n != 0 {
		t.Fatalf("Key allocates %.1f objects per call, want 0", n)
	}
}
