package hashing

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"dynstream/internal/field"
)

// hornerBankRef is the coefficient-major Horner sweep PolyBank ran
// before it evaluated dot products over shared powers: every lane
// advances one coefficient per step, reducing mod P at each. It is the
// reference the bank must match bit for bit.
func hornerBankRef(polys []*Poly, x uint64, dst []uint64) {
	x = field.Reduce(x)
	clear(dst)
	for c := len(polys[0].coeffs) - 1; c >= 0; c-- {
		for i := range dst {
			dst[i] = field.Add(field.Mul(dst[i], x), polys[i].coeffs[c])
		}
	}
}

// powerKeys are the boundary keys of the field reduction plus random
// ones.
func powerKeys() []uint64 {
	keys := []uint64{0, 1, field.P - 1, field.P, field.P + 1, 1 << 61, math.MaxUint64}
	rng := NewSplitMix64(0x90e5)
	for i := 0; i < 64; i++ {
		keys = append(keys, rng.Next())
	}
	return keys
}

func TestPowersMatchHorner(t *testing.T) {
	for deg := 2; deg <= MaxDegree; deg++ {
		// Random lanes, and one with every coefficient P-1: with key
		// P-1 every product is maximal, the accumulator's worst case.
		polys := make([]*Poly, 5)
		for i := range polys {
			polys[i] = NewPoly(Mix(0x9e5, uint64(deg), uint64(i)), deg)
		}
		top := make([]uint64, deg)
		for c := range top {
			top[c] = field.P - 1
		}
		polys = append(polys, &Poly{coeffs: top})
		bank := NewPolyBank(polys...)
		want := make([]uint64, len(polys))
		got := make([]uint64, len(polys))
		var pw Powers
		for _, x := range powerKeys() {
			PowersOf(x, &pw)
			if pw[1] != field.Reduce(x) {
				t.Fatalf("PowersOf(%d)[1] = %d, want the reduced key", x, pw[1])
			}
			for k := 0; k <= len(polys); k++ {
				hornerBankRef(polys, x, want[:k])
				bank.HashPrefix(x, got[:k])
				for i := 0; i < k; i++ {
					if got[i] != want[i] {
						t.Fatalf("deg %d key %d prefix %d lane %d: HashPrefix %d, Horner %d", deg, x, k, i, got[i], want[i])
					}
				}
				clear(got)
				bank.HashPrefixPow(&pw, got[:k])
				for i := 0; i < k; i++ {
					if got[i] != want[i] {
						t.Fatalf("deg %d key %d prefix %d lane %d: HashPrefixPow %d, Horner %d", deg, x, k, i, got[i], want[i])
					}
				}
			}
			for i, p := range polys {
				if h := p.Hash(x); h != want[i] || p.HashPow(&pw) != h {
					t.Fatalf("deg %d key %d lane %d: Hash %d, HashPow %d, Horner %d", deg, x, i, h, p.HashPow(&pw), want[i])
				}
				if l := p.Level(x); p.LevelPow(&pw) != l {
					t.Fatalf("deg %d key %d lane %d: LevelPow %d, Level %d", deg, x, i, p.LevelPow(&pw), l)
				}
			}
		}
	}
}

// TestPolyBankDegreeBound pins MaxDegree: a bank over wider polynomials
// is nil, so its callers hash per Poly through Horner and never build
// Powers for it, and HashPow refuses such a polynomial rather than
// reading past Powers.
func TestPolyBankDegreeBound(t *testing.T) {
	wide := []*Poly{NewPoly(0x9, MaxDegree+1), NewPoly(0xa, MaxDegree+1)}
	if NewPolyBank(wide...) != nil {
		t.Fatalf("a degree-%d bank must be nil", MaxDegree+1)
	}
	want := make([]uint64, len(wide))
	for _, x := range powerKeys() {
		hornerBankRef(wide, x, want)
		for i, p := range wide {
			if h := p.Hash(x); h != want[i] {
				t.Fatalf("key %d lane %d: Hash %d, Horner %d", x, i, h, want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("HashPow accepted a degree-%d polynomial", MaxDegree+1)
		}
	}()
	var pw Powers
	wide[0].HashPow(&pw)
}

// FuzzPowDot checks the 128-bit lazy reduction of powDot against
// math/big for up to MaxDegree products of operands in [0, P): each 16
// input bytes are one (coefficient, power) pair, reduced by %P.
func FuzzPowDot(f *testing.F) {
	f.Add([]byte{})
	top := make([]byte, 16*MaxDegree)
	for i := 0; i < len(top); i += 8 {
		binary.LittleEndian.PutUint64(top[i:], field.P-1)
	}
	f.Add(top)
	f.Add(top[:16])
	f.Add(make([]byte, 16*MaxDegree))
	wrap := make([]byte, 32) // 1·1 + (P-1)·1 = P: the reduction's r == P case
	for i, v := range []uint64{1, 1, field.P - 1, 1} {
		binary.LittleEndian.PutUint64(wrap[8*i:], v)
	}
	f.Add(wrap)
	mixed := make([]byte, 16*MaxDegree)
	rng := NewSplitMix64(0xd07)
	for i := 0; i < len(mixed); i += 8 {
		binary.LittleEndian.PutUint64(mixed[i:], rng.Next())
	}
	f.Add(mixed)
	bigP := new(big.Int).SetUint64(field.P)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/16, MaxDegree)
		var c [MaxDegree]uint64
		var pw Powers
		sum, prod := new(big.Int), new(big.Int)
		for i := 0; i < n; i++ {
			c[i] = binary.LittleEndian.Uint64(data[16*i:]) % field.P
			pw[i] = binary.LittleEndian.Uint64(data[16*i+8:]) % field.P
			prod.SetUint64(c[i])
			sum.Add(sum, prod.Mul(prod, new(big.Int).SetUint64(pw[i])))
		}
		want := sum.Mod(sum, bigP).Uint64()
		if got := powDot(&c, &pw); got != want {
			t.Fatalf("powDot(%v, %v) = %d, math/big %d", c[:n], pw[:n], got, want)
		}
	})
}
