package sketch

import (
	"math"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
)

// F0 estimates the number of distinct keys with nonzero net weight in a
// dynamic (insert/delete) stream — the paper's Theorem 9 primitive
// [KNW10]. The paper uses it solely as a decodability guard for
// SKETCH_B: "declare the sketch not decodable when the number of
// distinct elements is estimated to be above 2B".
//
// Implementation: geometric level sampling. Level j holds K fingerprint
// buckets over the keys sampled at rate 2^-j; a bucket is empty iff its
// fingerprint accumulator is zero (whp — a random linear combination of
// the net weights). At the level where occupancy is moderate, linear
// counting (−K·ln(empty fraction)·2^j) estimates F0 within a constant
// factor, which is all the guard needs. A nil *F0 reads as the zero
// estimator (IsZero, Estimate), as a nil SketchB does.
type F0 struct {
	seed      uint64 // retained for serialization (hashes re-derive from it)
	levels    int
	buckets   int
	acc       [][]uint64 // acc[j][b]: field accumulator
	levelHash *hashing.Poly
	// bank holds each level's (bucket, coefficient) hash pair,
	// level-major, so Add evaluates the 2×(level+1) hashes of one update
	// over the key's shared powers.
	bank    hashing.PolyBank
	scratch []uint64
}

// NewF0 creates an estimator for keys drawn from a universe of size at
// most universe (used to bound the number of levels).
func NewF0(seed uint64, universe uint64) *F0 {
	levels := 1
	for u := universe; u > 1; u >>= 1 {
		levels++
	}
	return newF0Geom(seed, levels)
}

// newF0Geom builds the estimator from its raw geometry — the
// deserialization entry point (levels is derived from the universe in
// NewF0 and carried on the wire).
func newF0Geom(seed uint64, levels int) *F0 {
	const buckets = 32
	f := &F0{
		seed:      seed,
		levels:    levels,
		buckets:   buckets,
		acc:       make([][]uint64, levels),
		levelHash: hashing.NewPoly(hashing.Mix(seed, 0xf0), 8),
		scratch:   make([]uint64, 2*levels),
	}
	seeds := f.scratch // the lane seeds, until Add reuses it for hashes
	for j := 0; j < levels; j++ {
		f.acc[j] = make([]uint64, buckets)
		seeds[2*j], seeds[2*j+1] = hashing.Mix(seed, 0xb0, uint64(j)), hashing.Mix(seed, 0xc0, uint64(j))
	}
	f.bank = hashing.SeededBank(6, seeds...)
	return f
}

// Add folds x[key] += delta into the estimator. The level hash and the
// bucket and coefficient hashes of every surviving level are dot
// products over the key's powers, computed once, bit-identical to the
// per-Poly evaluation.
func (f *F0) Add(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	var pw hashing.Powers
	hashing.PowersOf(key, &pw)
	lv := min(f.levelHash.LevelPow(&pw), f.levels-1)
	d := field.FromInt64(delta)
	hs := f.scratch[:2*(lv+1)]
	f.bank.HashPrefixPow(&pw, hs)
	for j := 0; j <= lv; j++ {
		b := int(hs[2*j] % uint64(f.buckets))
		f.acc[j][b] = field.Add(f.acc[j][b], field.Mul(d, hs[2*j+1]))
	}
}

// AddBatch folds a batch of updates; bit-identical to calling Add per
// element. keys and deltas must have equal length. (F0 has no
// fingerprint powers to amortize — its per-update cost is the level
// hash plus one bucket/coefficient hash per surviving level — but the
// batched entry point keeps the ingest stack uniform.)
func (f *F0) AddBatch(keys []uint64, deltas []int64) {
	for i, key := range keys {
		f.Add(key, deltas[i])
	}
}

// IsZero reports whether every accumulator is zero — the state of a
// fresh estimator, which is what lets compressed encodings suppress it.
func (f *F0) IsZero() bool {
	if f == nil {
		return true
	}
	for j := range f.acc {
		if !field.AllZero(f.acc[j]) {
			return false
		}
	}
	return true
}

// Merge adds another estimator built with the same seed.
func (f *F0) Merge(o *F0) {
	for j := range f.acc {
		field.AddVec(f.acc[j], f.acc[j], o.acc[j])
	}
}

// Sub subtracts another estimator built with the same seed.
func (f *F0) Sub(o *F0) {
	for j := range f.acc {
		field.SubVec(f.acc[j], f.acc[j], o.acc[j])
	}
}

func (f *F0) occupied(j int) int {
	n := 0
	for _, v := range f.acc[j] {
		if v != 0 {
			n++
		}
	}
	return n
}

// Estimate returns an estimate of the number of distinct keys with
// nonzero net weight, within a constant factor whp.
func (f *F0) Estimate() float64 {
	if f == nil {
		return 0
	}
	k := float64(f.buckets)
	// Use the densest level that is still below the linear-counting
	// saturation band: occupancy there is large enough for a reliable
	// estimate (sparser levels have O(1) survivors and huge variance).
	for j := 0; j < f.levels; j++ {
		occ := float64(f.occupied(j))
		if occ > 0.7*k {
			continue // saturated, go sparser
		}
		if occ == 0 {
			if j == 0 {
				return 0
			}
			// Previous level was saturated yet this one is empty — a
			// low-probability sampling fluke. Report a conservative
			// estimate from the saturated level below.
			return 0.7 * k * math.Pow(2, float64(j-1))
		}
		return -k * math.Log(1-occ/k) * math.Pow(2, float64(j))
	}
	// Every level saturated: the support is enormous.
	return 8 * k * math.Pow(2, float64(f.levels))
}

// ExceedsThreshold reports whether the estimated support is above t.
// This is the decodability guard used in front of SKETCH_B decoding.
func (f *F0) ExceedsThreshold(t int) bool {
	return f.Estimate() > float64(t)
}

// SpaceWords returns the memory footprint in 64-bit words.
func (f *F0) SpaceWords() int {
	return f.levels*f.buckets + 4
}
