// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must be bit-for-bit reproducible across Go releases and
// platforms so that tests can assert exact event counts. math/rand's
// stream is stable in practice but its convenience helpers have changed
// across versions; a self-contained generator removes the risk and lets
// every component own an independent, cheaply forkable stream.
//
// The core generator is xoshiro256** seeded via splitmix64, following
// Blackman & Vigna. It is not cryptographically secure and must never be
// used for anything but simulation decisions.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random source. The zero value is not
// usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Two generators with
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	// splitmix64 to fill the state: recommended seeding procedure for
	// xoshiro, avoids the all-zero state for any seed.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork returns a new generator whose stream is a deterministic function of
// the parent's current state and the given label. Forking lets components
// (one per core, per app, per cache) consume independent streams without
// coordinating, while remaining reproducible.
func (r *Rand) Fork(label uint64) *Rand {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// State returns the generator's internal state for checkpointing.
func (r *Rand) State() [4]uint64 { return r.s }

// Restore overwrites the generator's state with a State() snapshot,
// resuming the exact stream position it was taken at.
func (r *Rand) Restore(s [4]uint64) { r.s = s }

// Uint64 returns the next 64 random bits. The state is stepped in
// locals so the xoshiro step stays within the inliner's budget.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0. A power of two masks one draw. Any other n takes a draw modulo
// n, after redrawing while the draw lies at or above the largest multiple
// of n that fits in a uint64: the remainders of those would favour the
// small values.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// max is that multiple: q*n, where math.MaxUint64 = q*n + r.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// GeometricSource samples a geometric distribution with a fixed mean m
// (number of trials until first success, minimum 1) by inverse transform:
// one 53-bit draw k gives ceil(log(1-k/2^53) / log(1-1/m)). The result is
// a step function of k, so the source tabulates the draws at which it
// steps and answers most draws with a table walk instead of a math.Log.
// Every draw is identical to evaluating the formula, and each Next
// consumes exactly one Uint64, as Float64 does.
type GeometricSource struct {
	r     *Rand
	denom float64 // log(1 - 1/m)
	unit  bool    // m <= 1: every sample is 1 and no draw is consumed

	// thr[i] is the smallest draw whose sample exceeds i+1. The table
	// stops before the last start bucket; draws past its end use the
	// formula.
	thr []uint64
	// start[b] is the sample of the first draw in bucket b (the top
	// geoBucketBits of the draw), where the table walk begins.
	start [1 << geoBucketBits]uint16
}

const (
	geoBucketBits = 10
	geoDrawBits   = 53
	geoBucketLow  = geoDrawBits - geoBucketBits
	// geoTableEnd is the first draw of the last bucket. That bucket
	// holds the distribution's long log-compressed tail (probability
	// 2^-10); its draws use the formula.
	geoTableEnd = 1<<geoDrawBits - 1<<geoBucketLow
	// geoMaxThresholds caps the table for very large means.
	geoMaxThresholds = 4096
)

// NewGeometricSource builds a sampler over r with mean m.
func NewGeometricSource(r *Rand, m float64) GeometricSource {
	if m <= 1 {
		return GeometricSource{r: r, unit: true}
	}
	g := GeometricSource{r: r, denom: math.Log(1 - 1/m)}
	g.thr = geometricThresholds(g.denom)
	n := 1
	for b := range g.start {
		k := uint64(b) << geoBucketLow
		for n <= len(g.thr) && k >= g.thr[n-1] {
			n++
		}
		g.start[b] = uint16(n)
	}
	return g
}

// Next draws the next sample (minimum 1).
func (g *GeometricSource) Next() int {
	if g.unit {
		return 1
	}
	return g.sample(g.r.Uint64() >> (64 - geoDrawBits))
}

// Skip consumes the draw Next would, without computing its sample: the
// stream stays where a Next would have left it.
func (g *GeometricSource) Skip() {
	if !g.unit {
		g.r.Uint64()
	}
}

// sample maps the 53-bit draw k to its geometric sample.
func (g *GeometricSource) sample(k uint64) int {
	n := int(g.start[k>>geoBucketLow])
	for n <= len(g.thr) && k >= g.thr[n-1] {
		n++
	}
	if n > len(g.thr) {
		return geometricAt(k, g.denom)
	}
	return n
}

// geometricAt is the inverse transform of the 53-bit draw k, exactly as
// a Float64 draw u = k/2^53 would evaluate it.
func geometricAt(k uint64, logOneMinusP float64) int {
	u := float64(k) / (1 << geoDrawBits)
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := int(math.Ceil(math.Log(1-u) / logOneMinusP))
	if n < 1 {
		n = 1
	}
	return n
}

// geometricThresholds returns, for j = 1, 2, ..., the smallest draw whose
// sample exceeds j, stopping at geoTableEnd or geoMaxThresholds. Each
// threshold is located with geometricAt itself, so the table agrees with
// the formula at every threshold: a closed-form first guess, a doubling
// bracket around it, then bisection. The table walk is exact because
// the sample is non-decreasing in k: 1-k/2^53 is exact and decreasing,
// and math.Log, the division by a negative constant and Ceil preserve
// order.
func geometricThresholds(denom float64) []uint64 {
	at := func(k uint64) int { return geometricAt(k, denom) }
	top := at(geoTableEnd - 1)
	thr := make([]uint64, 0, min(max(top-1, 0), geoMaxThresholds))
	// Invariant: at(lo) <= j, and at(geoTableEnd-1) = top > j.
	lo := uint64(0)
	for j := 1; j < top && len(thr) < geoMaxThresholds; j++ {
		hi := uint64(geoTableEnd - 1)
		// The sample exceeds j once 1-u < exp(j*denom).
		guess := uint64(-math.Expm1(float64(j)*denom)*(1<<geoDrawBits)) + 1
		if guess > lo && guess < hi {
			step := uint64(1)
			if at(guess) > j {
				hi = guess
				for step < hi-lo {
					c := hi - step
					if at(c) <= j {
						lo = c
						break
					}
					hi = c
					step *= 2
				}
			} else {
				lo = guess
				for step < hi-lo {
					c := lo + step
					if at(c) > j {
						hi = c
						break
					}
					lo = c
					step *= 2
				}
			}
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if at(mid) > j {
				hi = mid
			} else {
				lo = mid
			}
		}
		thr = append(thr, hi)
		lo = hi - 1
	}
	return thr
}

// ZipfSource samples a bounded Zipf-like distribution over [0, n) with
// exponent s; small indexes are most likely. It inverts the continuous
// approximation of the CDF, (x^(1-s) - 1) / (n^(1-s) - 1), which is
// adequate for workload skew modeling; s = 1 is treated as 1.0001 to
// avoid the harmonic special case. The constants n^(1-s) - 1 and
// 1/(1-s) are computed once here, by the same expressions a per-draw
// evaluation would use, so every sample is bit for bit what the formula
// gives. Each Next consumes one Uint64, or none when n <= 1.
type ZipfSource struct {
	r     *Rand
	n     int
	scale float64 // n^(1-s) - 1
	inv   float64 // 1/(1-s)
}

// NewZipfSource builds a sampler over r for n items with exponent s.
func NewZipfSource(r *Rand, n int, s float64) ZipfSource {
	if s == 1 {
		s = 1.0001
	}
	oneMinusS := 1 - s
	return ZipfSource{r: r, n: n, scale: math.Pow(float64(n), oneMinusS) - 1, inv: 1 / oneMinusS}
}

// Next draws the next index in [0, n).
func (z *ZipfSource) Next() int {
	if z.n <= 1 {
		return 0
	}
	u := z.r.Float64()
	x := math.Pow(u*z.scale+1, z.inv)
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
