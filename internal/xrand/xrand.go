// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// The simulator must be exactly reproducible across runs and platforms, and
// each simulated thread needs its own statistically-independent stream so
// that changing one thread's behaviour cannot perturb another thread's
// access pattern. math/rand's global state is unsuitable for that, so this
// package implements SplitMix64 (for seeding) and xoshiro256** (for the
// streams), plus the samplers the trace generators need (uniform ranges,
// Bernoulli draws, bounded Zipf).
package xrand

import (
	"fmt"
	"math"
	"sync"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand user seeds into full generator state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not usable; create
// instances with New or Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed. Two calls
// with the same seed yield identical streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// A xoshiro state of all zeros is degenerate; SplitMix64 cannot emit
	// four consecutive zeros, but guard anyway for safety.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

// Split returns a new generator whose stream is independent of r's.
// It is deterministic: the nth Split of a generator seeded with s is
// always the same. Use it to give each simulated thread its own stream.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// State returns the generator's full internal state, for checkpointing.
// Restoring it with Restore reproduces the stream bit-exactly.
func (r *Rand) State() [4]uint64 { return r.s }

// Restore replaces the generator's state with one captured by State.
// An all-zero state is degenerate for xoshiro and is rejected.
func (r *Rand) Restore(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("xrand: cannot restore all-zero state")
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// jumpPoly is the xoshiro256 jump polynomial: the GF(2) coefficients of
// T^(2^128) expressed in powers of the state-transition matrix T (the
// linear update Uint64 applies). XOR-accumulating the state at each set
// bit while stepping the generator — the standard xoshiro jump
// algorithm — computes T^(2^128)·state, i.e. advances the stream by
// exactly 2^128 draws. The constants are the published xoshiro256
// values; TestJumpMatchesMatrixPower re-derives them independently by
// squaring the 256×256 bit matrix of T 128 times.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator by 2^128 Uint64 calls in O(256) steps.
// Repeated Jumps partition one seed's period (2^256-1) into 2^128
// non-overlapping blocks of 2^128 draws, so a single logical stream can
// be generated in parallel chunks: give worker k a copy of the base
// generator jumped k times and the concatenated outputs equal the
// sequential stream's blocks. Substream(i) composes Jumps to land on
// block i in O(1) instead of O(i); see substream.go.
// TestSubstreamMatchesMatrixPower pins the composition against the
// same independent GF(2) oracle that verifies this jump polynomial.
func (r *Rand) Jump() {
	var s [4]uint64
	for _, coeff := range jumpPoly {
		for b := 0; b < 64; b++ {
			if coeff&(1<<uint(b)) != 0 {
				s[0] ^= r.s[0]
				s[1] ^= r.s[1]
				s[2] ^= r.s[2]
				s[3] ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = s
}

// Uint64 returns the next 64 uniformly-distributed random bits.
func (r *Rand) Uint64() uint64 {
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

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
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

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^alpha. It uses inverse-CDF sampling over a precomputed
// cumulative table, which is exact and fast for the table sizes the
// trace generators use (working sets of at most a few hundred thousand
// lines are sampled through coarse buckets, not per-line tables).
type Zipf struct {
	cdf []float64
	// cdfInt[i] is floor(cdf[i] * 2^53). A uniform draw u compares
	// against cdf entries as u = b/2^53 for the 53-bit integer b, and
	// cdf[i] >= b/2^53 iff floor(cdf[i]*2^53) >= b (the scaling is an
	// exact power-of-two multiply), so the lookup runs entirely on
	// integer compares without changing a single sampled rank.
	cdfInt []uint64
	// guide[k] is the first index i with cdf[i] >= k/len(guide): a
	// guide table that turns the inverse-CDF lookup into an O(1)
	// expected scan of ~2 entries instead of a cache-missing binary
	// search. The lookup result is exactly the binary search's ("first
	// cdf entry >= u"), so sampled streams are unchanged.
	guide []int32
	r     *Rand
}

// zipfKey identifies a (n, alpha) table pair for the sampler cache.
type zipfKey struct {
	n     int
	alpha float64
}

// zipfTables are the immutable precomputed tables for one (n, alpha).
// Once published through zipfCache they are only ever read, so samplers
// on different goroutines can share them.
type zipfTables struct {
	cdf    []float64
	cdfInt []uint64
	guide  []int32
}

// zipfCache memoizes tables across samplers. Phase modulation rebuilds
// samplers every interval with a small set of recurring (n, alpha)
// pairs, so the (deterministic) tables are worth sharing: the map stays
// tiny while the math.Pow construction cost is paid once per pair
// instead of once per interval per thread.
//
// Lifetime: the map is unbounded and process-lived — every distinct
// (n, alpha) pair ever sampled stays resident (~20 bytes per rank, so
// ~10 KiB per 512-bucket table). The figure suite cycles through a few
// dozen pairs and the map stays small, but a long-running process
// sweeping many distinct working-set geometries accumulates one table
// per pair; call PurgeZipfCache between sweeps to release them.
var zipfCache sync.Map // zipfKey -> *zipfTables

// PurgeZipfCache drops every memoized Zipf table. Existing samplers are
// unaffected — they hold direct references to their (immutable) tables
// — and subsequent NewZipf calls simply rebuild and re-memoize. Safe to
// call concurrently with sampling.
func PurgeZipfCache() {
	zipfCache.Range(func(key, _ any) bool {
		zipfCache.Delete(key)
		return true
	})
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha >= 0.
// alpha == 0 degenerates to the uniform distribution.
func NewZipf(r *Rand, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf called with n <= 0")
	}
	if alpha < 0 {
		panic("xrand: NewZipf called with alpha < 0")
	}
	key := zipfKey{n: n, alpha: alpha}
	if t, ok := zipfCache.Load(key); ok {
		tab := t.(*zipfTables)
		return &Zipf{cdf: tab.cdf, cdfInt: tab.cdfInt, guide: tab.guide, r: r}
	}
	tab := &zipfTables{cdf: make([]float64, n), cdfInt: make([]uint64, n), guide: make([]int32, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		tab.cdf[i] = sum
	}
	inv := 1 / sum
	for i := range tab.cdf {
		tab.cdf[i] *= inv
	}
	tab.cdf[n-1] = 1 // guard against rounding
	for i, v := range tab.cdf {
		tab.cdfInt[i] = uint64(v * (1 << 53))
	}
	idx := int32(0)
	for k := range tab.guide {
		for tab.cdf[idx] < float64(k)/float64(n) {
			idx++
		}
		tab.guide[k] = idx
	}
	if prev, loaded := zipfCache.LoadOrStore(key, tab); loaded {
		tab = prev.(*zipfTables) // another goroutine won the race; share its tables
	}
	return &Zipf{cdf: tab.cdf, cdfInt: tab.cdfInt, guide: tab.guide, r: r}
}

// N returns the number of ranks the sampler draws from.
func (z *Zipf) N() int { return len(z.cdf) }

// Next returns the next sampled rank in [0, N()): the first index whose
// cdf entry is >= the uniform draw b/2^53 — evaluated in the integer
// domain via cdfInt (see its comment for the exact equivalence). The
// guide table gives a starting point near the answer, and the two
// correction loops converge to the unique fixpoint from any start, so
// the result equals a full binary search for every draw. b*n cannot
// reach n*2^53, so the bucket index stays in range without clamping.
func (z *Zipf) Next() int {
	b := z.r.Uint64() >> 11 // the same 53-bit draw Float64 scales
	hi, lo := mul64(b, uint64(len(z.guide)))
	k := int(hi<<11 | lo>>53) // floor(b*n / 2^53)
	i := int(z.guide[k])
	for i > 0 && z.cdfInt[i-1] >= b {
		i--
	}
	for z.cdfInt[i] < b {
		i++
	}
	return i
}
