// Package detrand provides deterministic, seedable pseudo-randomness keyed
// by strings. Every stochastic choice in the synthetic engine and corpus —
// which businesses exist near a grid cell, which A/B bucket a request lands
// in, how news rotates day to day — is derived from hashes of stable keys,
// so the entire 30-day study is exactly reproducible from a single root
// seed while still exhibiting realistic variation across keys.
//
// The generator is SplitMix64, which has excellent statistical behaviour
// for this purpose and is trivially portable.
package detrand

import "hash/fnv"

// Hash folds the given string parts into a 64-bit key using FNV-1a with a
// separator byte between parts (so Hash("ab","c") != Hash("a","bc")).
func Hash(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

// RNG is a deterministic SplitMix64 generator. The zero value is a valid
// generator seeded with 0; prefer New.
type RNG struct {
	state uint64
}

// New returns an RNG seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// NewKeyed returns an RNG seeded from a hash of the given parts mixed with
// seed — the common idiom for "randomness attached to an entity".
func NewKeyed(seed uint64, parts ...string) *RNG {
	return New(seed ^ Hash(parts...))
}

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("detrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Norm returns an approximately standard-normal variate using the
// Irwin–Hall sum of twelve uniforms — ample fidelity for jitter terms.
func (r *RNG) Norm() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Sample returns k distinct elements of xs chosen uniformly without
// replacement (all of xs, shuffled, when k >= len(xs)). The input is not
// mutated.
func Sample[T any](r *RNG, xs []T, k int) []T {
	cp := make([]T, len(xs))
	copy(cp, xs)
	r.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	if k > len(cp) {
		k = len(cp)
	}
	return cp[:k]
}
