// Package field implements arithmetic over the prime field GF(p) with
// p = 2^61 - 1 (a Mersenne prime). All sketch fingerprints in this
// repository are computed over this field: it is large enough that the
// polynomial-identity fingerprint tests used by the sparse-recovery
// sketches fail with probability at most poly(n)/p, and Mersenne
// reduction keeps multiplication branch-free and fast.
//
// Alongside the scalar operations, kernels.go provides batch kernels
// (AddVec, MulVec, MergeCells, FingerprintVec, ...) that apply one
// field operation across whole structure-of-arrays cell slices. The
// kernels are the hot loops of every sketch; their contract — exact
// canonical representatives, aliasing rules, tail handling — is
// documented in kernels.go, and the `purego` build tag swaps in plain
// scalar reference loops.
package field

import (
	"math"
	"math/bits"
)

// P is the field modulus 2^61 - 1.
const P uint64 = (1 << 61) - 1

// Reduce maps an arbitrary uint64 into [0, P).
func Reduce(x uint64) uint64 {
	// x = hi*2^61 + lo with 2^61 ≡ 1 (mod P).
	x = (x >> 61) + (x & P)
	if x >= P {
		x -= P
	}
	return x
}

// Add returns (a + b) mod P. Inputs must already be in [0, P).
func Add(a, b uint64) uint64 {
	s := a + b
	if s >= P {
		s -= P
	}
	return s
}

// Sub returns (a - b) mod P. Inputs must already be in [0, P).
func Sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P - b
}

// Neg returns (-a) mod P. Input must be in [0, P).
func Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return P - a
}

// Mul returns (a * b) mod P using a 128-bit product followed by
// Mersenne reduction. Inputs must be in [0, P).
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo ≡ hi*8 + lo (mod P),
	// split lo into its top 3 bits and low 61 bits.
	r := (hi << 3) | (lo >> 61)
	return Reduce(r + (lo & P))
}

// Pow returns a^e mod P by binary exponentiation.
func Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Fixed-base windowed exponentiation. Every sketch fingerprint in this
// repository is a power of a per-sketch random base r, evaluated once
// per stream update — the single hottest field operation in ingest. A
// PowTable precomputes r^(d·16^w) for every 4-bit window value d and
// window position w, so r^e costs at most one multiplication per
// nonzero window (≤ 15 Muls for a 61-bit exponent) instead of the ~120
// Muls of square-and-multiply.
const (
	powWindowBits = 4
	powWindowSize = 1 << powWindowBits        // 16 digit values per window
	powWindowMask = uint64(powWindowSize - 1) // low-window digit mask
)

// PowTable holds the precomputed window powers of a fixed base. Each
// window costs 16 multiplications and 128 bytes to build: a full table
// (16 windows, any uint64 exponent) ~256 Muls and 2 KB, a table for
// exponents up to maxExp PowWindows(maxExp) windows. Afterwards Pow is
// ~8× faster than the generic square-and-multiply and returns
// bit-identical values (both compute the canonical representative of
// base^e mod P). An exponent past the windows takes square-and-multiply,
// so the bound a table is built for decides cost, never the result.
type PowTable struct {
	base uint64
	max  uint64 // largest exponent the windows cover: 16^len(tab) − 1
	tab  [][powWindowSize]uint64
}

// PowWindow is one window of a PowTable: base^(d·16^w) for d < 16.
type PowWindow = [powWindowSize]uint64

// PowWindows is the number of windows exponents up to maxExp use,
// ⌈bits(maxExp)/4⌉: the storage Init needs for a table bounded by
// maxExp.
func PowWindows(maxExp uint64) int {
	return (bits.Len64(maxExp) + powWindowBits - 1) / powWindowBits
}

// NewPowTable precomputes the window powers of base (reduced mod P)
// for every uint64 exponent.
func NewPowTable(base uint64) *PowTable { return NewPowTableBelow(base, math.MaxUint64) }

// NewPowTableBelow precomputes only the windows that exponents up to
// maxExp use. Any larger exponent still gets the exact power, through
// field.Pow.
func NewPowTableBelow(base, maxExp uint64) *PowTable {
	t := new(PowTable)
	t.Init(base, make([]PowWindow, PowWindows(maxExp)))
	return t
}

// Init makes t the table of base (reduced mod P) over the caller's
// windows, which it fills and keeps: exponents below 16^len(windows)
// take the window walk. Each window is a product tree over its step
// s = base^(16^w) — s², then s³…s⁴, s⁵…s⁸, s⁹…s¹⁵ as s⁸ times s¹…s⁷,
// and the next step s¹⁶ = (s⁸)² — so its longest chain of dependent
// multiplications is four, not fifteen. Mul returns canonical
// elements, so every entry equals the one a multiplication chain
// gives.
func (t *PowTable) Init(base uint64, windows []PowWindow) {
	*t = PowTable{
		base: Reduce(base),
		max:  math.MaxUint64 >> (64 - powWindowBits*len(windows)),
		tab:  windows,
	}
	step := t.base // base^(16^w), advanced per window
	for w := range windows {
		row := &windows[w]
		row[0], row[1] = 1, step
		row[2] = Mul(step, step)
		row[3], row[4] = Mul(row[2], step), Mul(row[2], row[2])
		for d := 1; d <= 4; d++ {
			row[4+d] = Mul(row[4], row[d])
		}
		for d := 1; d < 8; d++ {
			row[8+d] = Mul(row[8], row[d])
		}
		step = Mul(row[8], row[8])
	}
}

// Base returns the (reduced) base the table was built for.
func (t *PowTable) Base() uint64 { return t.base }

// Pow returns base^e mod P, identical to Pow(base, e).
func (t *PowTable) Pow(e uint64) uint64 {
	if e > t.max {
		return Pow(t.base, e)
	}
	result, tab := uint64(1), t.tab
	for w := 0; e != 0; w++ {
		if d := e & powWindowMask; d != 0 {
			result = Mul(result, tab[w][d])
		}
		e >>= powWindowBits
	}
	return result
}

// smallInvs is the inverse of every a below 64, by Fermat once: a
// decoder inverts a sketch cell's count on every peel test, and counts
// are small integers (±1 the commonest) or their negatives.
var smallInvs = func() (t [64]uint64) {
	for a := uint64(1); a < 64; a++ {
		t[a] = Pow(a, P-2)
	}
	return t
}()

// Inv returns the multiplicative inverse of a mod P. It panics on a == 0
// after reduction, which indicates a programming error in the caller:
// inverses are only requested for provably nonzero counts.
func Inv(a uint64) uint64 {
	a = Reduce(a)
	switch {
	case a == 0:
		panic("field: inverse of zero")
	case a < 64:
		return smallInvs[a]
	case a > P-64:
		// (−a)⁻¹ = −(a⁻¹), the value Fermat gives: P−2 is odd.
		return P - smallInvs[P-a]
	}
	// Fermat: a^(P-2) = a^{-1}.
	return Pow(a, P-2)
}

// FromInt64 maps a signed integer into the field.
func FromInt64(v int64) uint64 {
	if v >= 0 {
		return Reduce(uint64(v))
	}
	return Neg(Reduce(uint64(-v)))
}
