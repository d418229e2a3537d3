// Package hashing provides the seeded pseudorandomness used by every
// sketch in this repository: a splitmix64 PRNG, k-wise independent
// polynomial hash families over GF(2^61-1), and Bernoulli / geometric-
// level samplers derived from them.
//
// The paper (Section 3.2) notes that O(log n)-wise independence suffices
// for the sampled vertex sets C_i and edge sets E_j; the polynomial
// family below gives exactly d-wise independence for a degree-(d-1)
// polynomial with random coefficients. Section 6.3 replaces truly random
// bits with Nisan's generator purely to keep the random seed small; we
// obtain the same effect by deriving every random object from a single
// 64-bit seed through splitmix64 streams, so the "seed" stored by an
// algorithm is O(1) words.
package hashing

import (
	"math/bits"

	"dynstream/internal/field"
)

// SplitMix64 is a tiny, fast, seedable PRNG with a 64-bit state. It is
// used to derive independent sub-seeds for the many hash functions an
// algorithm instantiates, so that the entire random tape of a run is a
// function of one root seed.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a PRNG seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next pseudorandom 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a pseudorandom float64 in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / float64(1<<53)
}

// Intn returns a pseudorandom int in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("hashing: Intn with non-positive bound")
	}
	return int(s.Next() % uint64(n))
}

// Perm returns a pseudorandom permutation of [0, n).
func (s *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Mix deterministically combines a seed with a stream index, yielding an
// independent-looking sub-seed. It is used to derive per-(r,j) hash
// seeds as in the paper's SKETCH^{r,j} superscript notation.
func Mix(seed uint64, index ...uint64) uint64 {
	s := SplitMix64{state: seed}
	out := s.Next()
	for _, ix := range index {
		s.state ^= ix * 0xff51afd7ed558ccd
		out ^= s.Next()
	}
	return out
}

// Poly is a k-wise independent hash function h(x) = sum c_i x^i over
// GF(2^61-1). A polynomial of degree d-1 with uniformly random
// coefficients is exactly d-wise independent on field inputs.
type Poly struct {
	coeffs []uint64 // coeffs[i] multiplies x^i
}

// NewPoly returns a hash function with the given independence degree
// (>= 2) derived deterministically from seed.
func NewPoly(seed uint64, independence int) *Poly {
	coeffs := make([]uint64, max(independence, 2))
	seedCoeffs(seed, coeffs)
	return &Poly{coeffs: coeffs}
}

// seedCoeffs fills c with the coefficients every polynomial of seed and
// independence len(c) has, in a Poly or in a bank lane: the SplitMix64
// sequence of seed reduced mod P, with a zero leading coefficient
// replaced by 1, which full independence needs.
func seedCoeffs(seed uint64, c []uint64) {
	rng := SplitMix64{state: seed}
	for i := range c {
		c[i] = field.Reduce(rng.Next())
	}
	if c[len(c)-1] == 0 {
		c[len(c)-1] = 1
	}
}

// Hash evaluates the polynomial at x via Horner's rule, returning a
// value in [0, P).
func (p *Poly) Hash(x uint64) uint64 {
	x = field.Reduce(x)
	acc := uint64(0)
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc = field.Add(field.Mul(acc, x), p.coeffs[i])
	}
	return acc
}

// Bucket maps x to one of m buckets.
func (p *Poly) Bucket(x uint64, m int) int {
	return int(p.Hash(x) % uint64(m))
}

// MaxDegree is the most coefficients a polynomial may have to be
// evaluated over shared Powers; every NewPoly outside tests uses at
// most 8. A bank of wider polynomials is nil.
const MaxDegree = 8

// Powers holds one key's powers x^0 … x^(MaxDegree-1) in GF(2^61-1),
// x reduced. A call site that hashes one key under several polynomials
// computes them once (PowersOf) and evaluates each polynomial as a dot
// product over them (HashPow, LevelPow, PolyBank.HashPrefixPow).
// Powers[1] is field.Reduce(x).
type Powers [MaxDegree]uint64

// PowersOf fills p with the powers of x mod P, three multiplications
// deep rather than seven. The literal spells out all MaxDegree powers.
func PowersOf(x uint64, p *Powers) {
	x = field.Reduce(x)
	x2 := field.Mul(x, x)
	x3, x4 := field.Mul(x2, x), field.Mul(x2, x2)
	*p = Powers{1, x, x2, x3, x4, field.Mul(x4, x), field.Mul(x3, x3), field.Mul(x4, x3)}
}

// powDot returns Σ c[i]·pw[i] mod P for coefficients in [0, P), zero
// past the polynomial's degree. Each product is below 2^122, so the
// MaxDegree products accumulate unreduced in 128 bits (below 2^125),
// summed as a tree, and the sum is reduced once, to the canonical
// representative Horner's rule returns.
func powDot(c *[MaxDegree]uint64, pw *Powers) uint64 {
	h0, l0 := bits.Mul64(c[0], pw[0])
	h1, l1 := bits.Mul64(c[1], pw[1])
	h2, l2 := bits.Mul64(c[2], pw[2])
	h3, l3 := bits.Mul64(c[3], pw[3])
	h4, l4 := bits.Mul64(c[4], pw[4])
	h5, l5 := bits.Mul64(c[5], pw[5])
	h6, l6 := bits.Mul64(c[6], pw[6])
	h7, l7 := bits.Mul64(c[7], pw[7])
	var k0, k1, k2, k3 uint64
	l0, k0 = bits.Add64(l0, l1, 0)
	l2, k1 = bits.Add64(l2, l3, 0)
	l4, k2 = bits.Add64(l4, l5, 0)
	l6, k3 = bits.Add64(l6, l7, 0)
	h0, h2, h4, h6 = h0+h1+k0, h2+h3+k1, h4+h5+k2, h6+h7+k3
	l0, k0 = bits.Add64(l0, l2, 0)
	l4, k1 = bits.Add64(l4, l6, 0)
	h0, h4 = h0+h2+k0, h4+h6+k1
	l0, k0 = bits.Add64(l0, l4, 0)
	h0 += h4 + k0
	// v = h0·2^64 + l0 < 2^125 and 2^61 ≡ 1: fold v>>61 (< 2^64) twice.
	q := h0<<3 | l0>>61
	r := l0&field.P + q&field.P + q>>61
	r = r>>61 + r&field.P
	if r >= field.P {
		r -= field.P
	}
	return r
}

// HashPow returns p.Hash(x) for pw = PowersOf(x). It panics if the
// polynomial has more than MaxDegree coefficients.
func (p *Poly) HashPow(pw *Powers) uint64 {
	var c [MaxDegree]uint64
	if copy(c[:], p.coeffs) < len(p.coeffs) {
		panic("hashing: HashPow past MaxDegree")
	}
	return powDot(&c, pw)
}

// PolyBank evaluates a fixed ordered set of equal-degree Polys at one
// point as dot products over the point's shared Powers: each lane's
// coefficients are one zero-padded block, and each lane is one lazily
// reduced dot product, so the key's powers are computed once for the
// whole bank instead of once per lane inside a Horner walk. Sketches
// that hash one key with several row functions per update — every
// structure in internal/sketch — evaluate the whole bank at once. Lane
// i returns exactly polys[i].Hash(x), bit for bit.
type PolyBank struct {
	coef [][MaxDegree]uint64 // coef[i] = polys[i].coeffs, zero-padded
}

// NewPolyBank builds a bank over the given polynomials. It returns nil
// if the set is empty, the degrees differ or exceed MaxDegree (callers
// fall back to per-Poly Hash).
func NewPolyBank(polys ...*Poly) *PolyBank {
	if len(polys) == 0 || len(polys[0].coeffs) > MaxDegree {
		return nil
	}
	b := &PolyBank{coef: make([][MaxDegree]uint64, len(polys))}
	for i, p := range polys {
		if len(p.coeffs) != len(polys[0].coeffs) {
			return nil
		}
		copy(b.coef[i][:], p.coeffs)
	}
	return b
}

// SeededBank returns the bank whose lane i is NewPoly(seeds[i],
// independence), bit for bit, with no Poly built: each lane's
// coefficients are seeded straight into its block. It panics if
// independence exceeds MaxDegree.
func SeededBank(independence int, seeds ...uint64) PolyBank {
	d := max(independence, 2)
	if d > MaxDegree {
		panic("hashing: SeededBank past MaxDegree")
	}
	b := PolyBank{coef: make([][MaxDegree]uint64, len(seeds))}
	for i, seed := range seeds {
		seedCoeffs(seed, b.coef[i][:d])
	}
	return b
}

// Append adds o's lanes after b's, in order.
func (b *PolyBank) Append(o *PolyBank) { b.coef = append(b.coef, o.coef...) }

// Lanes returns the number of polynomials in the bank.
func (b *PolyBank) Lanes() int { return len(b.coef) }

// HashPrefix fills dst[i] with the hash of x under lane i, for the
// first len(dst) lanes (len(dst) must be at most Lanes). Evaluating a
// prefix is what level-sampled sketches need: an update surviving to
// level j only consumes the first (j+1)×rows lane hashes.
func (b *PolyBank) HashPrefix(x uint64, dst []uint64) {
	var pw Powers
	PowersOf(x, &pw)
	b.HashPrefixPow(&pw, dst)
}

// HashPrefixPow is HashPrefix for pw = PowersOf(x), for call sites that
// share one key's powers across several banks and level hashes.
func (b *PolyBank) HashPrefixPow(pw *Powers, dst []uint64) {
	coef := b.coef[:len(dst)]
	for i := range dst {
		dst[i] = powDot(&coef[i], pw)
	}
}

// Bernoulli reports whether x is sampled at probability rate in [0, 1].
// The decision is a deterministic function of (hash, x), so replaying a
// stream yields identical sample sets — the property Section 6.3 needs.
func (p *Poly) Bernoulli(x uint64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	threshold := uint64(rate * float64(field.P))
	return p.Hash(x) < threshold
}

// Level returns the geometric level of x: the number of leading zero
// bits of a uniform hash of x, so P(Level >= j) = 2^-j. An item x
// belongs to the nested sample set E_j iff Level(x) >= j. The paper
// samples each E_j independently; nested geometric sampling is the
// standard space-saving variant (as in [AGM12a]) and preserves the only
// property the analysis uses — that E[|S ∩ E_j|] = |S| 2^-j at each j.
func (p *Poly) Level(x uint64) int { return levelOf(p.Hash(x)) }

// LevelPow returns p.Level(x) for pw = PowersOf(x). It panics if the
// polynomial has more than MaxDegree coefficients.
func (p *Poly) LevelPow(pw *Powers) int { return levelOf(p.HashPow(pw)) }

// levelOf counts the leading zeros of the low 60 bits of a field
// element in O(1): the uniform string of Level. An all-zero string is
// level 60.
func levelOf(h uint64) int {
	h &= 1<<60 - 1
	if h == 0 {
		return 60
	}
	return bits.LeadingZeros64(h) - 4
}
