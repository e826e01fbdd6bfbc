// Package xrand provides deterministic, splittable pseudo-random number
// generation for the HARL auto-scheduler.
//
// Every stochastic component in the repository (schedule sampling, evolutionary
// mutation, PPO exploration, measurement noise, bandit tie-breaking) draws from
// an *xrand.RNG seeded explicitly by the experiment harness, so that every
// experiment harl-bench regenerates is exactly reproducible. The generator is
// splitmix64 at its core, promoted to xoshiro256** for the main stream, which
// is both fast and statistically strong enough for simulation workloads.
package xrand

import (
	"math"
	"math/bits"
	"sort"
)

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; use Split to derive independent generators for goroutines.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used to seed the xoshiro state so that similar seeds yield unrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed value.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// Split derives a new generator whose stream is independent of the parent's
// subsequent output. The parent advances by one step.
func (r *RNG) Split() *RNG {
	seed := r.Uint64()
	return New(seed ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded output.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RunningSums overwrites the weights w with their running sums, the form
// Choice draws from, and returns w. It panics on a negative or NaN weight.
func RunningSums(w []float64) []float64 {
	acc := 0.0
	for i, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic("xrand: negative or NaN weight")
		}
		acc += x
		w[i] = acc
	}
	return w
}

// Choice draws an index with probability proportional to its weight, given
// the weights' RunningSums, by bisection: the first i with x < cum[i] for x
// uniform in [0, total), else the last index; all-zero weights draw uniformly.
func (r *RNG) Choice(cum []float64) int {
	total := cum[len(cum)-1]
	if total == 0 {
		return r.Intn(len(cum))
	}
	x := r.Float64() * total
	return sort.Search(len(cum)-1, func(i int) bool { return x < cum[i] })
}

// HashSeed is the Hash64 of no words.
const HashSeed uint64 = 0x9e3779b97f4a7c15

// HashMix folds further words into a running hash; it is Hash64's streaming
// form, for callers that would otherwise build a word slice only to hash it:
// Hash64(a, b, c) == HashMix(HashMix(HashSeed, a), b, c).
func HashMix(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		h ^= w
		h = splitmix64(&h)
	}
	return h
}

// Hash64 deterministically mixes a sequence of 64-bit words into one value.
// It is used to derive the simulator's reproducible "texture" noise from a
// schedule's parameter vector without consuming generator state.
func Hash64(words ...uint64) uint64 { return HashMix(HashSeed, words...) }

// HashUnit maps Hash64 output to a float in [0, 1).
func HashUnit(words ...uint64) float64 {
	return float64(Hash64(words...)>>11) / (1 << 53)
}
