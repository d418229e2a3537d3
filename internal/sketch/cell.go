// Package sketch implements the linear sketching primitives of
// Kapralov–Woodruff (PODC'14):
//
//   - Cell: one-sparse recovery over a signed integer vector, the atom
//     underlying everything else.
//   - SketchB: exact recovery of B-sparse signals (the paper's
//     SKETCH_B / DECODE pair, Theorem 8 [CM06]), realized as an
//     IBLT-style peeling structure. It is a linear function of the
//     input vector: sketches of x and y sum to a sketch of x+y.
//   - F0: a distinct-elements estimator (Theorem 9 [KNW10]) used as the
//     decodability guard: a SketchB is declared "not decodable" when
//     the estimated support size exceeds 2B.
//   - L0Sampler: recovery of one support element of a signed vector via
//     geometric subsampling, used by the AGM spanning-forest sketch.
//   - KeyedEdgeSketch: the "linear hash table" H^u_j of Algorithm 2,
//     which recovers one incident edge per neighboring key.
//
// All structures are linear: they support Add (stream updates), Merge
// (summing sketches of different vectors) and Sub (subtracting an edge
// set, as required when Algorithm 3 deletes E_low from the AGM sketch).
package sketch

import (
	"dynstream/internal/field"
)

// Cell is a one-sparse recovery cell for a signed integer vector x
// indexed by uint64 keys. It maintains
//
//	count  = Σ_i x_i          (as int64)
//	keySum = Σ_i x_i · i      (mod p)
//	fing   = Σ_i x_i · r^i    (mod p)
//
// for a random base r. If x has exactly one nonzero coordinate (i, w)
// the cell decodes it exactly; the fingerprint test rejects any other
// vector except with probability ≤ maxKey/p (a polynomial-identity
// test in r).
type Cell struct {
	count  int64
	keySum uint64
	fing   uint64
}

// Update folds (key, delta) into the cell. fkey must equal r^key for the
// sketch's fingerprint base; callers compute it once per stream update
// and share it across rows.
func (c *Cell) Update(key uint64, delta int64, fkey uint64) {
	c.count += delta
	d := field.FromInt64(delta)
	c.keySum = field.Add(c.keySum, field.Mul(d, field.Reduce(key)))
	c.fing = field.Add(c.fing, field.Mul(d, fkey))
}

// Merge adds another cell (a sketch of a different vector over the same
// randomness) into c.
func (c *Cell) Merge(o Cell) {
	c.count += o.count
	c.keySum = field.Add(c.keySum, o.keySum)
	c.fing = field.Add(c.fing, o.fing)
}

// Sub subtracts another cell from c.
func (c *Cell) Sub(o Cell) {
	c.count -= o.count
	c.keySum = field.Sub(c.keySum, o.keySum)
	c.fing = field.Sub(c.fing, o.fing)
}

// IsZero reports whether the cell is (whp) a sketch of the zero vector.
func (c *Cell) IsZero() bool {
	return c.count == 0 && c.keySum == 0 && c.fing == 0
}

// Decode attempts one-sparse recovery with fingerprint base r. On
// success it returns the key and its (nonzero) net weight.
func (c *Cell) Decode(r uint64) (key uint64, weight int64, ok bool) {
	if c.count == 0 {
		return 0, 0, false
	}
	cf := field.FromInt64(c.count)
	key = field.Mul(c.keySum, field.Inv(cf))
	if field.Mul(cf, field.Pow(r, key)) != c.fing {
		return 0, 0, false
	}
	return key, c.count, true
}

// DecodeTable is Decode with the fingerprint power computed through a
// precomputed table for the base — the fast path used by peeling
// decoders, which evaluate one power per cell per sweep. The result is
// bit-identical to Decode(tab.Base()). On success it also returns the
// verified power fkey = r^key (key is below P, so it is the power
// Update takes), which removes the item from the other rows without
// a second evaluation.
func (c *Cell) DecodeTable(tab *field.PowTable) (key uint64, weight int64, fkey uint64, ok bool) {
	if c.count == 0 {
		return 0, 0, 0, false
	}
	cf := field.FromInt64(c.count)
	key = field.Mul(c.keySum, field.Inv(cf))
	fkey = tab.Pow(key)
	if field.Mul(cf, fkey) != c.fing {
		return 0, 0, 0, false
	}
	return key, c.count, fkey, true
}
