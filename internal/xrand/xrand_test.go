package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must differ from the parent's continuation.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split stream mirrors parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(9)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %f out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	f := func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(17)
	cum := RunningSums([]float64{0, 1, 0, 3})
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[r.Choice(cum)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight arms selected: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %f, want ≈3", ratio)
	}
}

func TestChoiceZeroWeightsFallsBack(t *testing.T) {
	r := New(19)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[r.Choice(RunningSums([]float64{0, 0, 0}))]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("uniform fallback never chose arm %d", i)
		}
	}
}

func TestChoicePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	New(1).Choice(RunningSums([]float64{1, -1}))
}

// linearChoice is the linear scan Choice replaced, kept as its oracle: the
// same draw, then the first index whose running sum exceeds it, summing the
// weights afresh on every call.
func linearChoice(r *RNG, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TestChoiceMatchesLinearScan holds the bisected Choice to the linear scan
// over random weight vectors — positive, mostly zero, tied, all zero, an
// infinite weight, and a subnormal total that a draw rounds up to, which
// sends both to the last index: every draw must return the same index and
// leave the generator in the same state.
func TestChoiceMatchesLinearScan(t *testing.T) {
	gen := New(76)
	last := 0 // draws that rounded up to the total and took a zero-weight last index
	for trial := 0; trial < 3000; trial++ {
		n := 1 + gen.Intn(200)
		w := make([]float64, n)
		for i := range w {
			switch trial % 6 {
			case 0:
				w[i] = gen.Float64()
			case 1:
				if gen.Intn(4) == 0 {
					w[i] = gen.Float64()
				}
			case 2:
				w[i] = float64(gen.Intn(3))
			case 4:
				if gen.Intn(n) == 0 {
					w[i] = math.Inf(1)
				}
			case 5:
				if gen.Intn(n) == 0 {
					w[i] = math.SmallestNonzeroFloat64
				}
			}
		}
		cum := RunningSums(append([]float64(nil), w...))
		seed := gen.Uint64()
		a, b := New(seed), New(seed)
		for d := 0; d < 32; d++ {
			want, got := linearChoice(a, w), b.Choice(cum)
			if got != want || *a != *b {
				t.Fatalf("weights %v draw %d: Choice %d, linear scan %d (states equal: %v)", w, d, got, want, *a == *b)
			}
			if cum[n-1] > 0 && w[want] == 0 {
				last++
			}
		}
	}
	if last == 0 {
		t.Fatal("no draw rounded up to the total: the last-index fallback went untested")
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 2, 3) != Hash64(1, 2, 3) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2, 3) == Hash64(1, 2, 4) {
		t.Fatal("Hash64 collision on trivially different input")
	}
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 must be order-sensitive")
	}
}

// TestHashValuesPinned pins the mix itself (every schedule key, measurement
// texture and journal derives from it) and the streaming form against it.
func TestHashValuesPinned(t *testing.T) {
	if Hash64() != HashSeed || Hash64(1, 2, 3) != 0x48cf5028b6df10db || Hash64(0xdeadbeef) != 0xe8cdc1bbdfed5d41 {
		t.Fatalf("Hash64 values moved: %#x %#x %#x", Hash64(), Hash64(1, 2, 3), Hash64(0xdeadbeef))
	}
	if got := HashMix(HashMix(HashSeed, 1), 2, 3); got != Hash64(1, 2, 3) {
		t.Fatalf("HashMix in two steps %#x, Hash64 %#x", got, Hash64(1, 2, 3))
	}
	// Intn rides the 128-bit multiply: one digest of 1 000 bounded draws.
	r, digest := New(9), 0
	for i := 0; i < 1000; i++ {
		digest = digest*31 + r.Intn(1+i*7919)
	}
	if digest != 6100394751895450935 {
		t.Fatalf("Intn stream moved: digest %d", digest)
	}
}

func TestHashUnitRange(t *testing.T) {
	f := func(a, b uint64) bool {
		u := HashUnit(a, b)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
