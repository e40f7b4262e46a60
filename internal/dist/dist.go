// Package dist provides deterministic pseudo-random sources and the
// probability distributions used throughout the simulator: uniform,
// exponential, Pareto and a handful of discrete helpers.
//
// All randomness in the repository flows through a dist.Source so that every
// experiment is exactly reproducible from a (configuration, seed) pair. A
// Source can be split into independent child streams, which lets concurrent
// components (peers, probers, workload generators) draw random numbers
// without sharing state or locks while remaining deterministic.
package dist

import (
	"fmt"
	"math"
)

// Source is a deterministic pseudo-random number generator. It implements
// the xoshiro256** algorithm (public domain, Blackman & Vigna), which has a
// 256-bit state, passes BigCrush, and is cheap to split.
//
// Source is not safe for concurrent use; use Split to derive independent
// streams for concurrent consumers.
type Source struct {
	s [4]uint64
}

// SplitMix64 is a splitmix64 stream: its value is the generator state.
// It seeds the xoshiro state from a single 64-bit seed and derives child
// stream seeds (the recommended seeding procedure for the xoshiro
// family), and it is the small stand-alone stream for derivations that
// must not draw from any Source, such as generated fault plans.
type SplitMix64 uint64

// Next returns the stream's next 64 bits.
func (x *SplitMix64) Next() uint64 {
	*x += 0x9e3779b97f4a7c15
	z := uint64(*x)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSource returns a Source seeded deterministically from seed.
func NewSource(seed uint64) *Source {
	var src Source
	x := SplitMix64(seed)
	for i := range src.s {
		src.s[i] = x.Next()
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
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

// Split returns a new Source whose stream is statistically independent of
// the receiver's. The receiver advances by one draw.
func (r *Source) Split() *Source {
	x := r.Uint64()
	return NewSource(x ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("dist: Intn called with n=%d", n))
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Uniform returns a uniformly distributed value in [lo, hi).
// It panics if hi < lo.
func (r *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("dist: Uniform called with lo=%g > hi=%g", lo, hi))
	}
	return lo + (hi-lo)*r.Float64()
}

// Exponential returns a draw from the exponential distribution with the
// given rate (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: Exponential called with rate=%g", rate))
	}
	u := r.Float64()
	// 1-u is in (0,1], so Log is finite.
	return -math.Log(1-u) / rate
}

// Pareto describes a Pareto (Type I) distribution with scale Xm > 0 and
// shape Alpha > 0. The paper models P2P session times with a Pareto
// distribution whose median is 60 minutes [Saroiu et al. 2002].
type Pareto struct {
	Xm    float64 // scale: minimum possible value
	Alpha float64 // shape: tail index
}

// ParetoFromMedian constructs a Pareto distribution with the given shape
// whose median equals median. For Pareto Type I the median is Xm·2^(1/α).
func ParetoFromMedian(median, alpha float64) Pareto {
	if median <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("dist: ParetoFromMedian(%g, %g): arguments must be positive", median, alpha))
	}
	return Pareto{Xm: median / math.Pow(2, 1/alpha), Alpha: alpha}
}

// Sample draws from the Pareto distribution by inverse-CDF sampling.
func (p Pareto) Sample(r *Source) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Shuffle permutes xs in place with a Fisher-Yates shuffle.
func Shuffle[T any](r *Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// SampleWithoutReplacement returns k distinct values chosen uniformly from
// [0, n). It panics if k > n or either argument is negative.
func SampleWithoutReplacement(r *Source, n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("dist: SampleWithoutReplacement(n=%d, k=%d)", n, k))
	}
	// Partial Fisher-Yates over an index table.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Choice returns a uniformly chosen element of xs. It panics if xs is empty.
func Choice[T any](r *Source, xs []T) T {
	if len(xs) == 0 {
		panic("dist: Choice on empty slice")
	}
	return xs[r.Intn(len(xs))]
}

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Negative weights are treated as
// zero. It panics if the slice is empty or all weights are zero.
func WeightedChoice(r *Source, weights []float64) int {
	if len(weights) == 0 {
		panic("dist: WeightedChoice on empty slice")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("dist: WeightedChoice with no positive weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
