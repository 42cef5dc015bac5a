// Package xrand provides the deterministic random-number substrate used by
// every stochastic component in this repository.
//
// All solvers (MaTCH, FastMap-GA, the extra baselines) and all workload
// generators draw exclusively from this package so that every experiment is
// reproducible from a single 64-bit seed. The core generator is
// xoshiro256** seeded through splitmix64, the combination recommended by
// Blackman and Vigna; it is small, fast, allocation-free and has a period of
// 2^256-1, which is ample for the sample volumes the CE method draws
// (N = 2n^2 mappings per iteration, each consuming O(n) variates).
//
// The package also provides the sampling primitives the paper's algorithms
// need: categorical ("roulette wheel") sampling over weight vectors,
// Fisher-Yates permutations, bounded uniform integers without modulo bias,
// and stream splitting so that parallel workers draw from statistically
// independent generators.
package xrand

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. The zero value is NOT valid; construct
// with New or Split. RNG is not safe for concurrent use — give each
// goroutine its own stream via Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used for seeding and for deriving split streams: every output of a
// distinct splitmix64 walk is an acceptable xoshiro seed word.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed. Two RNGs
// built from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the stream defined by seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// emit four consecutive zeros, but guard anyway for clarity.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a new, statistically independent generator from r.
// The derivation consumes one variate from r, so parent and child streams
// do not overlap in practice and repeated Split calls yield distinct
// children. Used to hand one stream to each parallel worker.
func (r *RNG) Split() *RNG {
	// Mix two parent outputs through splitmix64 so the child seed does not
	// share low-order structure with the parent stream.
	seed := r.Uint64()
	seed ^= rotl(r.Uint64(), 32)
	return New(seed)
}

// mix64 is the splitmix64 finaliser: a bijective avalanche over uint64
// used to derive addressable stream seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ReseedKeyed resets r to the stream addressed by the (seed, a, b) tuple.
// Unlike Split — whose children depend on how many variates the parent has
// already drawn — keyed streams are pure functions of their address, so a
// work unit can be claimed by any worker in any order and still draw the
// same variates. The CE runtime keys its sampling streams by
// (run seed, iteration, unit index); determinism then holds not just for a
// fixed (seed, workers) pair but independently of the worker count and of
// the work-stealing schedule. Each key component passes through the
// splitmix64 finaliser before being folded in, so adjacent (iteration,
// unit) addresses yield statistically unrelated streams.
func (r *RNG) ReseedKeyed(seed, a, b uint64) {
	h := mix64(seed + 0x9e3779b97f4a7c15)
	h = mix64(h ^ (a + 0x9e3779b97f4a7c15))
	h = mix64(h ^ (b + 0x632be59bd9b4e019))
	r.Reseed(h)
}

// NewKeyed returns a fresh generator on the keyed stream (seed, a, b); see
// ReseedKeyed.
func NewKeyed(seed, a, b uint64) *RNG {
	r := &RNG{}
	r.ReseedKeyed(seed, a, b)
	return r
}

// SeedKeyed derives a sub-seed addressed by (seed, a), using the same
// splitmix64-finalised folding as ReseedKeyed. The island-model runtime
// derives each island's run seed as SeedKeyed(seed, island) and then keys
// that island's sampling streams by (islandSeed, iter, unit), so every
// variate is a pure function of the (seed, island, iter, unit) address —
// bit-reproducible regardless of how islands and workers are scheduled.
func SeedKeyed(seed, a uint64) uint64 {
	h := mix64(seed + 0x9e3779b97f4a7c15)
	return mix64(h ^ (a + 0x632be59bd9b4e019))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: Intn called with n=%d", n))
	}
	return int(r.bounded(uint64(n)))
}

// bounded returns a uniform integer in [0, bound) for bound > 0 by
// Lemire's multiply-shift rejection method: the high word of the 128-bit
// product x*bound is the draw, and the rare low words below
// 2^64 mod bound are redrawn, which removes the modulo bias without a
// division in the common case.
func (r *RNG) bounded(bound uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return hi
}

// IntRange returns a uniform integer in the inclusive range [lo, hi].
// It panics if hi < lo. The span is computed in uint64, so it cannot
// overflow; a range that covers all 2^64 values takes one Uint64
// directly.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("xrand: IntRange called with lo=%d > hi=%d", lo, hi))
	}
	span := uint64(hi) - uint64(lo) + 1
	if span == 0 {
		return int(r.Uint64())
	}
	return lo + int(r.bounded(span))
}

// Float64Range returns a uniform float64 in [lo, hi).
func (r *RNG) Float64Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Bool returns true with probability p. Values of p outside [0,1] clamp to
// always-false / always-true as expected.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. Only one of the pair is used; the method stays allocation-free.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher-Yates shuffle. GenPerm (paper Fig. 4, step 1) uses this to pick
// the task visiting order.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// PermInto writes a uniformly random permutation of [0, len(p)) into p,
// avoiding the allocation of Perm. Used in the CE inner loop.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
}

// ShuffleInts shuffles p in place.
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ErrZeroMass reports a categorical draw over a weight vector whose total
// mass is zero (or all entries are masked).
var ErrZeroMass = errors.New("xrand: categorical sampling over zero total mass")

// Categorical draws an index from the distribution proportional to
// weights. Weights must be non-negative; at least one must be positive,
// otherwise ErrZeroMass is returned. This is the "roulette wheel" draw
// used both by GenPerm row sampling and by the GA's selection operator.
func (r *RNG) Categorical(weights []float64) (int, error) {
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return 0, fmt.Errorf("xrand: negative or NaN weight %v in categorical draw", w)
		}
		total += w
	}
	if total <= 0 {
		return 0, ErrZeroMass
	}
	return r.categoricalWithTotal(weights, total), nil
}

// CategoricalTotal is Categorical for callers that maintain the running
// total themselves (the GenPerm hot path renormalises by masking, so the
// total is known). Behaviour is undefined if total does not match the sum
// of weights. It panics on non-positive total.
func (r *RNG) CategoricalTotal(weights []float64, total float64) int {
	if total <= 0 {
		panic("xrand: CategoricalTotal with non-positive total")
	}
	return r.categoricalWithTotal(weights, total)
}

func (r *RNG) categoricalWithTotal(weights []float64, total float64) int {
	x := r.Float64() * total
	acc := 0.0
	last := -1
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		last = i
		if x < acc {
			return i
		}
	}
	// Floating-point shortfall: the accumulated mass can end slightly below
	// x*total. Return the last positive-weight index.
	if last < 0 {
		panic("xrand: categoricalWithTotal over all-zero weights")
	}
	return last
}

// Exponential returns an exponential variate with the given rate.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exponential with non-positive rate")
	}
	// 1-Float64() is in (0,1], so the log is finite.
	return -math.Log(1-r.Float64()) / rate
}

// SampleWithoutReplacement returns k distinct uniform indices from [0, n)
// using a partial Fisher-Yates shuffle; order of the result is random.
// It panics if k > n or k < 0.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("xrand: SampleWithoutReplacement(n=%d, k=%d)", n, k))
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k:k]
}
