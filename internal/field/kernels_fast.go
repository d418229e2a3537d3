//go:build !purego

package field

import "math/bits"

// Fast kernel implementations: 4-lane-unrolled loops over reduced
// operands, with bounds checks eliminated by reslicing every operand to
// the destination length up front. The per-lane primitives below are
// branch-free — modular carries are folded in with sign-mask selects
// instead of compares — because the carry branch in the scalar
// field.Add/Sub is taken with probability ~1/2 on random sketch state,
// which is the worst case for a branch predictor inside an unrolled
// loop. They return the same canonical representatives as the scalar
// functions for all inputs in [0, P); kernels_test.go proves the
// equivalence exhaustively at the boundaries and by fuzzing.

// addP returns Add(a, b) branch-free: compute a+b-P, then add P back
// iff the subtraction underflowed (sign mask of the wrapped result;
// a+b < 2^62 keeps the wrapped value's top bit unambiguous).
func addP(a, b uint64) uint64 {
	t := a + b - P
	t += P & uint64(int64(t)>>63)
	return t
}

// subP returns Sub(a, b) branch-free.
func subP(a, b uint64) uint64 {
	t := a - b
	t += P & uint64(int64(t)>>63)
	return t
}

// mulP returns Mul(a, b) with the final Mersenne reduction branch-free.
func mulP(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (hi<<3 | lo>>61) + (lo & P)
	r = (r >> 61) + (r & P)
	r -= P
	r += P & uint64(int64(r)>>63)
	return r
}

func addVec(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := addP(a[i], b[i])
		v1 := addP(a[i+1], b[i+1])
		v2 := addP(a[i+2], b[i+2])
		v3 := addP(a[i+3], b[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = v0, v1, v2, v3
	}
	for ; i < n; i++ {
		dst[i] = addP(a[i], b[i])
	}
}

func subVec(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := subP(a[i], b[i])
		v1 := subP(a[i+1], b[i+1])
		v2 := subP(a[i+2], b[i+2])
		v3 := subP(a[i+3], b[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = v0, v1, v2, v3
	}
	for ; i < n; i++ {
		dst[i] = subP(a[i], b[i])
	}
}

func mulVec(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		v0 := mulP(a[i], b[i])
		v1 := mulP(a[i+1], b[i+1])
		v2 := mulP(a[i+2], b[i+2])
		v3 := mulP(a[i+3], b[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = v0, v1, v2, v3
	}
	for ; i < n; i++ {
		dst[i] = mulP(a[i], b[i])
	}
}

func mergeCells[C Count](dc []C, dk, df []uint64, sc []C, sk, sf []uint64) {
	n := len(dc)
	dk = dk[:n]
	df = df[:n]
	sc = sc[:n]
	sk = sk[:n]
	sf = sf[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dc[i] += sc[i]
		dc[i+1] += sc[i+1]
		dc[i+2] += sc[i+2]
		dc[i+3] += sc[i+3]
		k0 := addP(dk[i], sk[i])
		k1 := addP(dk[i+1], sk[i+1])
		k2 := addP(dk[i+2], sk[i+2])
		k3 := addP(dk[i+3], sk[i+3])
		dk[i], dk[i+1], dk[i+2], dk[i+3] = k0, k1, k2, k3
		f0 := addP(df[i], sf[i])
		f1 := addP(df[i+1], sf[i+1])
		f2 := addP(df[i+2], sf[i+2])
		f3 := addP(df[i+3], sf[i+3])
		df[i], df[i+1], df[i+2], df[i+3] = f0, f1, f2, f3
	}
	for ; i < n; i++ {
		dc[i] += sc[i]
		dk[i] = addP(dk[i], sk[i])
		df[i] = addP(df[i], sf[i])
	}
}

func subCells[C Count](dc []C, dk, df []uint64, sc []C, sk, sf []uint64) {
	n := len(dc)
	dk = dk[:n]
	df = df[:n]
	sc = sc[:n]
	sk = sk[:n]
	sf = sf[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dc[i] -= sc[i]
		dc[i+1] -= sc[i+1]
		dc[i+2] -= sc[i+2]
		dc[i+3] -= sc[i+3]
		k0 := subP(dk[i], sk[i])
		k1 := subP(dk[i+1], sk[i+1])
		k2 := subP(dk[i+2], sk[i+2])
		k3 := subP(dk[i+3], sk[i+3])
		dk[i], dk[i+1], dk[i+2], dk[i+3] = k0, k1, k2, k3
		f0 := subP(df[i], sf[i])
		f1 := subP(df[i+1], sf[i+1])
		f2 := subP(df[i+2], sf[i+2])
		f3 := subP(df[i+3], sf[i+3])
		df[i], df[i+1], df[i+2], df[i+3] = f0, f1, f2, f3
	}
	for ; i < n; i++ {
		dc[i] -= sc[i]
		dk[i] = subP(dk[i], sk[i])
		df[i] = subP(df[i], sf[i])
	}
}

func scatterAdd3[C Count, I Index](counts []C, keys, fings []uint64, delta C, ks, fg uint64, idx []I) {
	for _, i := range idx {
		counts[i] += delta
		keys[i] = addP(keys[i], ks)
		fings[i] = addP(fings[i], fg)
	}
}

func allZero(a []uint64) bool {
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		if a[i]|a[i+1]|a[i+2]|a[i+3] != 0 {
			return false
		}
	}
	for ; i < n; i++ {
		if a[i] != 0 {
			return false
		}
	}
	return true
}

func allZeroI64(a []int64) bool {
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		if a[i]|a[i+1]|a[i+2]|a[i+3] != 0 {
			return false
		}
	}
	for ; i < n; i++ {
		if a[i] != 0 {
			return false
		}
	}
	return true
}

// fingerprintVec walks the window table once, outermost, applying each
// window's digit to every exponent before advancing — the hoisted form
// of the per-call window loop in PowTable.Pow. The `any` accumulator
// (OR of all remaining exponent suffixes) terminates the walk exactly
// when every per-element Pow would have terminated, and zero digits
// multiply by nothing, so each dst[i] sees precisely the Mul sequence
// of t.Pow(exps[i]). The same OR bounds every exponent: when it passes
// the table's windows, some element needs square-and-multiply, and the
// slice goes through t.Pow one element at a time.
func fingerprintVec(t *PowTable, dst, exps []uint64) {
	n := len(exps)
	dst = dst[:n]
	var any uint64
	for i := range dst {
		dst[i] = 1
		any |= exps[i]
	}
	if any > t.max {
		for i, e := range exps {
			dst[i] = t.Pow(e)
		}
		return
	}
	for w := 0; any != 0; w++ {
		row := &t.tab[w]
		sh := uint(w) * powWindowBits & 63 // w < 16: the mask only tells the compiler the shift is in range
		for i, e := range exps {
			if d := (e >> sh) & powWindowMask; d != 0 {
				dst[i] = Mul(dst[i], row[d])
			}
		}
		any >>= powWindowBits
	}
}

func powPair(ta, tb *PowTable, ea, eb uint64) (uint64, uint64) {
	if ea > ta.max || eb > tb.max {
		return ta.Pow(ea), tb.Pow(eb)
	}
	ra, rb, wa, wb := uint64(1), uint64(1), ta.tab, tb.tab
	for w := 0; ea|eb != 0; w++ {
		if d := ea & powWindowMask; d != 0 {
			ra = Mul(ra, wa[w][d])
		}
		if d := eb & powWindowMask; d != 0 {
			rb = Mul(rb, wb[w][d])
		}
		ea >>= powWindowBits
		eb >>= powWindowBits
	}
	return ra, rb
}
