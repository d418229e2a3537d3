package field

import "testing"

// splitmix64 clone, local to avoid an import cycle with hashing.
type tRng struct{ s uint64 }

func (r *tRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestPowTableMatchesPow(t *testing.T) {
	rng := tRng{s: 0x9d9d}
	bases := []uint64{0, 1, 2, 3, P - 1, P, P + 5, rng.next(), rng.next()}
	exps := []uint64{0, 1, 2, 15, 16, 17, 255, 256, P - 2, P - 1, P, ^uint64(0)}
	for _, b := range bases {
		tab := NewPowTable(b)
		if tab.Base() != Reduce(b) {
			t.Fatalf("Base() = %d, want %d", tab.Base(), Reduce(b))
		}
		for _, e := range exps {
			if got, want := tab.Pow(e), Pow(b, e); got != want {
				t.Fatalf("PowTable(%d).Pow(%d) = %d, want %d", b, e, got, want)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		b, e := rng.next(), rng.next()
		tab := NewPowTable(b)
		if got, want := tab.Pow(e), Pow(b, e); got != want {
			t.Fatalf("PowTable(%d).Pow(%d) = %d, want %d", b, e, got, want)
		}
	}
}

func TestPowTableInverseConsistency(t *testing.T) {
	// tab.Pow(P-2) must invert the base, same as Inv.
	rng := tRng{s: 0x1111}
	for i := 0; i < 100; i++ {
		b := Reduce(rng.next())
		if b == 0 {
			continue
		}
		tab := NewPowTable(b)
		if got, want := tab.Pow(P-2), Inv(b); got != want {
			t.Fatalf("table inverse of %d = %d, want %d", b, got, want)
		}
	}
}

// TestPowTableBelowMatchesPow: a table built for exponents up to maxExp
// returns field.Pow's value for every exponent — inside its windows, at
// their edge, and past them, where it falls back to square-and-multiply
// — through Pow, FingerprintVec and PowPair alike.
func TestPowTableBelowMatchesPow(t *testing.T) {
	rng := tRng{s: 0x4b4b}
	bases := []uint64{0, 1, 2, 3, P - 1, P, P + 5, rng.next(), rng.next()}
	bounds := []uint64{0, 1, 15, 16, 63, 4095, 999999, 1 << 61, ^uint64(0)}
	for _, b := range bases {
		full := NewPowTable(b)
		for _, bound := range bounds {
			tab := NewPowTableBelow(b, bound)
			if tab.max < bound || len(tab.tab) > len(full.tab) {
				t.Fatalf("NewPowTableBelow(%d, %d): windows cover up to %d in %d windows", b, bound, tab.max, len(tab.tab))
			}
			exps := []uint64{0, P - 1, ^uint64(0)}
			for _, edge := range []uint64{bound, tab.max} {
				exps = append(exps, edge-1, edge, edge+1) // wraps at 0 and MaxUint64: still exponents
			}
			for _, e := range exps {
				if got, want := tab.Pow(e), Pow(b, e); got != want {
					t.Fatalf("NewPowTableBelow(%d, %d).Pow(%d) = %d, want %d", b, bound, e, got, want)
				}
				ga, gb := PowPair(tab, full, e, e^1)
				gc, gd := PowPair(full, tab, e^1, e)
				if want, wantAlt := Pow(b, e), Pow(b, e^1); ga != want || gb != wantAlt || gc != wantAlt || gd != want {
					t.Fatalf("PowPair with NewPowTableBelow(%d, %d) at %d diverges from Pow", b, bound, e)
				}
			}
			// In-range slices take the window walk, mixed ones the fallback.
			var in []uint64
			for _, e := range exps {
				if e <= bound {
					in = append(in, e)
				}
			}
			for _, vec := range [][]uint64{exps, in, {}} {
				dst := make([]uint64, len(vec))
				tab.FingerprintVec(dst, vec)
				for i, e := range vec {
					if want := Pow(b, e); dst[i] != want {
						t.Fatalf("NewPowTableBelow(%d, %d).FingerprintVec[%d] (e=%d) = %d, want %d", b, bound, i, e, dst[i], want)
					}
				}
			}
		}
	}
}

// TestPowTableWindowsMatchPow: a table initialised over caller storage,
// each window a product tree, holds base^(d·16^w) for every digit d of
// every window w, and its Pow agrees with field.Pow inside and past the
// windows.
func TestPowTableWindowsMatchPow(t *testing.T) {
	rng := tRng{s: 0x7ee}
	bases := []uint64{0, 1, 2, 3, P - 1, P, rng.next(), rng.next()}
	bounds := []uint64{0, 1, 15, 16, 63, 4095, 999999, 1<<48 - 1, ^uint64(0)}
	for _, b := range bases {
		for _, bound := range bounds {
			windows := make([]PowWindow, PowWindows(bound))
			var tab PowTable
			tab.Init(b, windows)
			if tab.max < bound || (len(windows) > 0 && tab.max>>4 >= bound) {
				t.Fatalf("base %d, bound %d: %d windows cover up to %d", b, bound, len(windows), tab.max)
			}
			for w := range windows {
				for d := uint64(0); d < powWindowSize; d++ {
					if got, want := windows[w][d], Pow(b, d<<(powWindowBits*w)); got != want {
						t.Fatalf("base %d, bound %d: window %d digit %d = %d, want %d", b, bound, w, d, got, want)
					}
				}
			}
			for _, e := range []uint64{0, 1, bound, bound + 1, tab.max, rng.next(), ^uint64(0)} {
				if got, want := tab.Pow(e), Pow(b, e); got != want {
					t.Fatalf("base %d, bound %d: Pow(%d) = %d, want %d", b, bound, e, got, want)
				}
			}
		}
	}
}
