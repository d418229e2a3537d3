//go:build purego

package field

// Pure-Go reference kernels: plain scalar loops over the exported
// field operations, with none of the unrolling or branch-free carry
// tricks of the default build. This is the semantic definition of
// every kernel — the fast path must match it bit for bit — and the
// escape hatch (`go build -tags purego`) if a platform ever miscompiles
// the tuned loops.

func addVec(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = Add(a[i], b[i])
	}
}

func subVec(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = Sub(a[i], b[i])
	}
}

func mulVec(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = Mul(a[i], b[i])
	}
}

func mergeCells[C Count](dc []C, dk, df []uint64, sc []C, sk, sf []uint64) {
	for i := range dc {
		dc[i] += sc[i]
		dk[i] = Add(dk[i], sk[i])
		df[i] = Add(df[i], sf[i])
	}
}

func subCells[C Count](dc []C, dk, df []uint64, sc []C, sk, sf []uint64) {
	for i := range dc {
		dc[i] -= sc[i]
		dk[i] = Sub(dk[i], sk[i])
		df[i] = Sub(df[i], sf[i])
	}
}

func scatterAdd3[C Count, I Index](counts []C, keys, fings []uint64, delta C, ks, fg uint64, idx []I) {
	for _, i := range idx {
		counts[i] += delta
		keys[i] = Add(keys[i], ks)
		fings[i] = Add(fings[i], fg)
	}
}

func allZero(a []uint64) bool {
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

func allZeroI64(a []int64) bool {
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

func fingerprintVec(t *PowTable, dst, exps []uint64) {
	for i, e := range exps {
		dst[i] = t.Pow(e)
	}
}

func powPair(ta, tb *PowTable, ea, eb uint64) (uint64, uint64) {
	return ta.Pow(ea), tb.Pow(eb)
}
