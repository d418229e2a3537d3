package field

import (
	"testing"
)

// Kernel-vs-scalar differential tests. The kernels must return exactly
// the canonical representatives the scalar operations return — on both
// builds: under the default tags this checks the unrolled branch-free
// path, under -tags purego it checks the reference loops against the
// same scalar calls (a tautology that still guards the dispatch seam).

// kernelLens covers empty, single, sub-unroll, unroll-boundary, and
// odd-tail lengths.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 64, 101}

// edgeVals are the canonical-representative boundary values every
// elementwise test mixes into its random inputs.
var edgeVals = []uint64{0, 1, 2, 3, P - 3, P - 2, P - 1}

// testVec returns n field elements: boundary values first, then a
// seeded pseudorandom fill.
func testVec(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	state := seed
	for i := range out {
		if i < len(edgeVals) {
			out[i] = edgeVals[i]
			continue
		}
		// splitmix64 step, reduced into the field.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = Reduce(z ^ (z >> 31))
	}
	return out
}

func cloneU64(a []uint64) []uint64 { return append([]uint64(nil), a...) }

func TestKernelsMatchScalar(t *testing.T) {
	for _, n := range kernelLens {
		a := testVec(uint64(n)*3+1, n)
		b := testVec(uint64(n)*7+2, n)

		wantAdd := make([]uint64, n)
		wantSub := make([]uint64, n)
		wantMul := make([]uint64, n)
		for i := 0; i < n; i++ {
			wantAdd[i] = Add(a[i], b[i])
			wantSub[i] = Sub(a[i], b[i])
			wantMul[i] = Mul(a[i], b[i])
		}

		dst := make([]uint64, n)
		AddVec(dst, a, b)
		for i := range dst {
			if dst[i] != wantAdd[i] {
				t.Fatalf("n=%d AddVec[%d] = %d, scalar %d", n, i, dst[i], wantAdd[i])
			}
		}
		SubVec(dst, a, b)
		for i := range dst {
			if dst[i] != wantSub[i] {
				t.Fatalf("n=%d SubVec[%d] = %d, scalar %d", n, i, dst[i], wantSub[i])
			}
		}
		MulVec(dst, a, b)
		for i := range dst {
			if dst[i] != wantMul[i] {
				t.Fatalf("n=%d MulVec[%d] = %d, scalar %d", n, i, dst[i], wantMul[i])
			}
		}
	}
}

func TestKernelsAliasing(t *testing.T) {
	// dst may be exactly a or exactly b; results must match the
	// out-of-place computation.
	for _, n := range kernelLens {
		a := testVec(uint64(n)+11, n)
		b := testVec(uint64(n)+23, n)
		want := make([]uint64, n)
		AddVec(want, a, b)

		inA := cloneU64(a)
		AddVec(inA, inA, b)
		inB := cloneU64(b)
		AddVec(inB, a, inB)
		for i := 0; i < n; i++ {
			if inA[i] != want[i] || inB[i] != want[i] {
				t.Fatalf("n=%d aliased AddVec diverges at %d", n, i)
			}
		}

		wantMul := make([]uint64, n)
		MulVec(wantMul, a, b)
		mulA := cloneU64(a)
		MulVec(mulA, mulA, b)
		for i := 0; i < n; i++ {
			if mulA[i] != wantMul[i] {
				t.Fatalf("n=%d aliased MulVec diverges at %d", n, i)
			}
		}
	}
}

func TestKernelsBoundaryPairsExhaustive(t *testing.T) {
	// Every pair of boundary values through the length-1 kernels.
	for _, x := range edgeVals {
		for _, y := range edgeVals {
			var dst [1]uint64
			AddVec(dst[:], []uint64{x}, []uint64{y})
			if dst[0] != Add(x, y) {
				t.Fatalf("AddVec(%d,%d) = %d, scalar %d", x, y, dst[0], Add(x, y))
			}
			SubVec(dst[:], []uint64{x}, []uint64{y})
			if dst[0] != Sub(x, y) {
				t.Fatalf("SubVec(%d,%d) = %d, scalar %d", x, y, dst[0], Sub(x, y))
			}
			MulVec(dst[:], []uint64{x}, []uint64{y})
			if dst[0] != Mul(x, y) {
				t.Fatalf("MulVec(%d,%d) = %d, scalar %d", x, y, dst[0], Mul(x, y))
			}
		}
	}
}

func TestMergeSubCellsMatchScalar(t *testing.T) {
	for _, n := range kernelLens {
		dk := testVec(uint64(n)+1, n)
		df := testVec(uint64(n)+2, n)
		sk := testVec(uint64(n)+3, n)
		sf := testVec(uint64(n)+4, n)
		dc := make([]int64, n)
		sc := make([]int64, n)
		for i := range dc {
			dc[i] = int64(i) - int64(n)/2
			sc[i] = int64(n) - 3*int64(i)
		}

		wc := append([]int64(nil), dc...)
		wk := cloneU64(dk)
		wf := cloneU64(df)
		for i := 0; i < n; i++ {
			wc[i] += sc[i]
			wk[i] = Add(wk[i], sk[i])
			wf[i] = Add(wf[i], sf[i])
		}
		MergeCells(dc, dk, df, sc, sk, sf)
		for i := 0; i < n; i++ {
			if dc[i] != wc[i] || dk[i] != wk[i] || df[i] != wf[i] {
				t.Fatalf("n=%d MergeCells diverges at %d", n, i)
			}
		}

		for i := 0; i < n; i++ {
			wc[i] -= sc[i]
			wk[i] = Sub(wk[i], sk[i])
			wf[i] = Sub(wf[i], sf[i])
		}
		SubCells(dc, dk, df, sc, sk, sf)
		for i := 0; i < n; i++ {
			if dc[i] != wc[i] || dk[i] != wk[i] || df[i] != wf[i] {
				t.Fatalf("n=%d SubCells diverges at %d", n, i)
			}
		}
	}
}

func TestI64VecAndZeroScans(t *testing.T) {
	for _, n := range kernelLens {
		zeros := make([]uint64, n)
		if !AllZero(zeros) {
			t.Fatalf("n=%d AllZero(zeros) = false", n)
		}
		zi := make([]int64, n)
		if !AllZeroI64(zi) {
			t.Fatalf("n=%d AllZeroI64(zeros) = false", n)
		}
		// A single nonzero at every position must be detected.
		for i := 0; i < n; i++ {
			zeros[i] = 1
			if AllZero(zeros) {
				t.Fatalf("n=%d AllZero misses nonzero at %d", n, i)
			}
			zeros[i] = 0
			zi[i] = -1
			if AllZeroI64(zi) {
				t.Fatalf("n=%d AllZeroI64 misses nonzero at %d", n, i)
			}
			zi[i] = 0
		}
	}
}

func TestScatterAdd3MatchesScalar(t *testing.T) {
	for _, n := range kernelLens {
		if n == 0 {
			continue
		}
		keys := testVec(0x5ca1, n)
		fings := testVec(0x5ca2, n)
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(i) - int64(n)/2
		}
		wantK := append([]uint64(nil), keys...)
		wantF := append([]uint64(nil), fings...)
		wantC := append([]int64(nil), counts...)
		// Repeated indices in idx must accumulate, like the routed
		// ingest scatter does when rows collide.
		idx := []int32{0, int32(n - 1), int32(n / 2), 0}
		for _, kfg := range [][2]uint64{{0, 0}, {1, P - 1}, {P - 1, P - 2}, {12345, 678910}} {
			ks, fg := kfg[0], kfg[1]
			const delta = int64(-3)
			ScatterAdd3(counts, keys, fings, delta, ks, fg, idx)
			for _, i := range idx {
				wantC[i] += delta
				wantK[i] = Add(wantK[i], ks)
				wantF[i] = Add(wantF[i], fg)
			}
			for i := 0; i < n; i++ {
				if counts[i] != wantC[i] || keys[i] != wantK[i] || fings[i] != wantF[i] {
					t.Fatalf("n=%d ks=%d fg=%d: cell %d = (%d,%d,%d), want (%d,%d,%d)",
						n, ks, fg, i, counts[i], keys[i], fings[i], wantC[i], wantK[i], wantF[i])
				}
			}
		}
	}
}

func TestFingerprintVecMatchesPow(t *testing.T) {
	tab := NewPowTable(0x9e3779b97f4a7c15)
	for _, n := range kernelLens {
		exps := make([]uint64, n)
		state := uint64(n) * 0xbf58476d1ce4e5b9
		for i := range exps {
			switch i {
			case 0:
				exps[i] = 0
			case 1:
				exps[i] = 1
			case 2:
				exps[i] = P - 1 // full-width exponent: all 16 windows
			case 3:
				exps[i] = P - 2
			default:
				state += 0x9e3779b97f4a7c15
				exps[i] = Reduce(state ^ state>>29)
			}
		}
		dst := make([]uint64, n)
		tab.FingerprintVec(dst, exps)
		for i, e := range exps {
			if want := tab.Pow(e); dst[i] != want {
				t.Fatalf("n=%d FingerprintVec[%d] = %d, Pow(%d) = %d", n, i, dst[i], e, want)
			}
		}
	}
}

func TestPowPairMatchesPow(t *testing.T) {
	ta := NewPowTable(12345)
	tb := NewPowTable(98765)
	exps := []uint64{0, 1, 2, 15, 16, 255, P - 2, P - 1, 0x123456789abcdef}
	for _, ea := range exps {
		for _, eb := range exps {
			ga, gb := PowPair(ta, tb, ea, eb)
			if ga != ta.Pow(ea) || gb != tb.Pow(eb) {
				t.Fatalf("PowPair(%d,%d) = (%d,%d), want (%d,%d)",
					ea, eb, ga, gb, ta.Pow(ea), tb.Pow(eb))
			}
			// Same-table form (the spanner's directed key pair).
			sa, sb := PowPair(ta, ta, ea, eb)
			if sa != ta.Pow(ea) || sb != ta.Pow(eb) {
				t.Fatalf("same-table PowPair(%d,%d) diverges", ea, eb)
			}
		}
	}
}

func TestInvFastPathsMatchFermat(t *testing.T) {
	// The table paths in Inv (a and P−a for a below 64) must equal the
	// Fermat computation they short-circuit, on both sides of each
	// boundary, and unreduced inputs must reduce first.
	for a := uint64(1); a <= 65; a++ {
		for _, x := range []uint64{a, P - a} {
			if got, want := Inv(x), Pow(x, P-2); got != want || Mul(x, got) != 1 {
				t.Fatalf("Inv(%d) = %d, Fermat %d", x, got, want)
			}
		}
	}
	for _, x := range []uint64{P + 3, 2*P - 1, ^uint64(0)} {
		if got, want := Inv(x), Pow(Reduce(x), P-2); got != want {
			t.Fatalf("Inv(%d) = %d, Fermat %d", x, got, want)
		}
	}
}
