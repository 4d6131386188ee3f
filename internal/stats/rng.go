// Package stats provides the deterministic random-number generation, the
// paper's self-similar Zipf distribution, and the Fenwick tree used by every
// experiment in this repository.
//
// All randomness in the simulator flows through RNG so that experiments are
// reproducible bit-for-bit from an explicit seed, independent of Go release
// (math/rand's generator and its seeding behaviour have changed across
// releases; this package has a frozen algorithm).
package stats

import "math"

// RNG is a deterministic pseudo-random number generator implementing
// xoshiro256** by Blackman and Vigna, seeded through SplitMix64.
//
// It is not safe for concurrent use; each goroutine should own its RNG,
// typically derived via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams; the zero seed is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if freshly created with NewRNG(seed).
func (r *RNG) Seed(seed uint64) {
	// SplitMix64 expansion of the seed into 256 bits of state, as
	// recommended by the xoshiro authors. SplitMix64 is an equidistributed
	// bijection, so no expansion produces the all-zero state.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
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

// Split returns a new generator whose stream is independent of r's
// continuation, for handing to a sub-component (e.g. one per workload pool).
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) using Lemire's
// nearly-divisionless method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with zero n")
	}
	// Rejection sampling on the high 64 bits of a 128-bit product keeps the
	// result exactly uniform.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			// -n%n == (2^64 - n) mod n, the rejection threshold.
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using swap, via Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ExpFloat64 returns an exponentially distributed value with rate lambda
// (mean 1/lambda). It panics if lambda <= 0.
func (r *RNG) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("stats: ExpFloat64 called with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so the logarithm is finite.
	return -math.Log(1-u) / lambda
}

// Geometric returns a geometrically distributed value k >= 1 with success
// probability p, i.e. Pr(k) = p(1-p)^(k-1): the forward distance d_t(p) of
// Eq. 3.1 in the paper. It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric called with probability outside (0, 1]")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64()
	return 1 + int(math.Floor(math.Log(1-u)/math.Log(1-p)))
}
