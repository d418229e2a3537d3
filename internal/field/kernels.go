package field

// Batch kernels. Every sketch in this repository stores its cell state
// in flat structure-of-arrays slices, and every hot loop — ingest,
// merge, subtract, zero-scan, peeling — is an elementwise field
// operation over those slices. The kernels below are the single place
// those loops live: bounds-check-eliminated, 4-lane-unrolled pure Go
// under the default build, with a `purego` build tag selecting the
// plain scalar reference loops (and reserving the seam for GOARCH-gated
// assembly where it later pays).
//
// Kernel contract, which both implementations satisfy and the
// differential tests in kernels_test.go enforce:
//
//   - Canonical representatives. Field-element inputs must be in
//     [0, P); outputs are the exact canonical representatives the
//     scalar field.Add/Sub/Mul functions return — bit-identical,
//     not merely congruent. The branch-free reductions used by the
//     fast path are an implementation detail that never leaks.
//   - Lengths. dst fixes the element count n; every other slice
//     operand must have length at least n (extra tail elements are
//     ignored). Kernels with no dst use the first operand's length.
//   - Aliasing. dst may be exactly one of the source slices (same base
//     pointer, as in the in-place dst = dst op src forms every caller
//     uses). Partially overlapping slices are undefined.
//   - Tails. n is arbitrary; lengths 0 and 1 and odd tails are handled
//     by a scalar remainder loop after the unrolled body.
//
// The kernels are deliberately allocation-free and never retain their
// arguments.

// AddVec sets dst[i] = Add(a[i], b[i]) for i in [0, len(dst)).
func AddVec(dst, a, b []uint64) { addVec(dst, a, b) }

// SubVec sets dst[i] = Sub(a[i], b[i]) for i in [0, len(dst)).
func SubVec(dst, a, b []uint64) { subVec(dst, a, b) }

// MulVec sets dst[i] = Mul(a[i], b[i]) for i in [0, len(dst)).
func MulVec(dst, a, b []uint64) { mulVec(dst, a, b) }

// Count is the element type of a count lane: plain wrapping integers,
// held as int64 by sketches with typed lanes (SketchB) and as their
// two's complement by sketches that keep all three lanes in one uint64
// block (the L0 sampler). Wrapping add and subtract are the same bits
// either way.
type Count interface{ int64 | uint64 }

// Index is the element type of a scatter's cell-index list: int32 for
// sketches of arbitrary width (SketchB), uint16 for the L0 sampler's
// small levels, whose routing is stored packed.
type Index interface{ int32 | uint16 }

// MergeCells folds one SoA cell block into another in a single pass:
// dcounts[i] += scounts[i] (plain integer counts), dkeys[i] =
// Add(dkeys[i], skeys[i]), dfings[i] = Add(dfings[i], sfings[i]).
// dcounts fixes the cell count.
func MergeCells[C Count](dcounts []C, dkeys, dfings []uint64, scounts []C, skeys, sfings []uint64) {
	mergeCells(dcounts, dkeys, dfings, scounts, skeys, sfings)
}

// SubCells subtracts one SoA cell block from another in a single pass:
// dcounts[i] -= scounts[i], dkeys[i] = Sub(dkeys[i], skeys[i]),
// dfings[i] = Sub(dfings[i], sfings[i]). dcounts fixes the cell count.
func SubCells[C Count](dcounts []C, dkeys, dfings []uint64, scounts []C, skeys, sfings []uint64) {
	subCells(dcounts, dkeys, dfings, scounts, skeys, sfings)
}

// ScatterAdd3 applies one routed update to a set of SoA cells: for
// every cell index i in idx, counts[i] += delta, keys[i] =
// Add(keys[i], ks), fings[i] = Add(fings[i], fg). This is the
// ingest-side scatter of L0Sampler.AddHint — the single hottest loop
// of stream ingest — where the ~50% taken carry branch of the scalar
// Add is the dominant mispredict source. Indices must be in bounds for
// all three lanes.
func ScatterAdd3[C Count, I Index](counts []C, keys, fings []uint64, delta C, ks, fg uint64, idx []I) {
	scatterAdd3(counts, keys, fings, delta, ks, fg, idx)
}

// AllZero reports whether every element of a is zero, scanning with an
// early-exit word loop (4-way OR per step).
func AllZero(a []uint64) bool { return allZero(a) }

// AllZeroI64 reports whether every element of a is zero.
func AllZeroI64(a []int64) bool { return allZeroI64(a) }

// FingerprintVec evaluates dst[i] = base^exps[i] for every exponent in
// one traversal of the table's 4-bit windows, hoisting the per-call
// window loop of Pow out across the whole slice: windows are walked
// once, outermost, and every exponent consumes its digit for that
// window before the walk advances. The per-element multiplication
// sequence — and therefore the result — is bit-identical to calling
// t.Pow(exps[i]) per element. dst must not alias exps.
func (t *PowTable) FingerprintVec(dst, exps []uint64) { fingerprintVec(t, dst, exps) }

// PowPair evaluates ta.Pow(ea) and tb.Pow(eb) in one shared window
// traversal — the two-endpoint form of FingerprintVec used when one
// stream update lands in two same-family sketches (the AGM edge
// update's (u,v) endpoints, the spanner's directed key pair). Results
// are bit-identical to the two separate Pow calls. ta and tb may be
// the same table.
func PowPair(ta, tb *PowTable, ea, eb uint64) (uint64, uint64) {
	return powPair(ta, tb, ea, eb)
}
