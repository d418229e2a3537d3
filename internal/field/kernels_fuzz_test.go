package field

import (
	"encoding/binary"
	"testing"
)

// Differential fuzzers: arbitrary byte strings become field-element
// vectors (of arbitrary length, including empty and odd tails) and are
// pushed through the batch kernels and the scalar operations side by
// side. Any divergence — on either build tag — is a kernel bug. The
// CI fuzz-smoke job replays the seed corpus on every push.

// fuzzVecs decodes data into two equal-length element vectors, mapping
// the raw words into [0, P) and steering some values onto the P
// boundary so the carry/select paths are exercised.
func fuzzVecs(data []byte) (a, b []uint64) {
	n := len(data) / 16
	a = make([]uint64, n)
	b = make([]uint64, n)
	for i := 0; i < n; i++ {
		x := binary.LittleEndian.Uint64(data[16*i:])
		y := binary.LittleEndian.Uint64(data[16*i+8:])
		// Low byte 0xff pins the value near the modulus boundary.
		if x&0xff == 0xff {
			x = P - (x>>8)%3
		}
		if y&0xff == 0xff {
			y = P - (y>>8)%3
		}
		a[i] = Reduce(x)
		b[i] = Reduce(y)
	}
	return a, b
}

func fuzzSeed(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Add(make([]byte, 161)) // odd tail
	boundary := make([]byte, 64)
	for i := range boundary {
		boundary[i] = 0xff
	}
	f.Add(boundary)
	mixed := make([]byte, 160)
	for i := range mixed {
		mixed[i] = byte(i*37 + 11)
	}
	f.Add(mixed)
}

func FuzzMulVec(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzVecs(data)
		n := len(a)
		dst := make([]uint64, n)
		MulVec(dst, a, b)
		for i := 0; i < n; i++ {
			if want := Mul(a[i], b[i]); dst[i] != want {
				t.Fatalf("MulVec[%d](%d,%d) = %d, scalar %d", i, a[i], b[i], dst[i], want)
			}
		}
	})
}

func FuzzAddSubVec(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzVecs(data)
		n := len(a)
		add := make([]uint64, n)
		sub := make([]uint64, n)
		AddVec(add, a, b)
		SubVec(sub, a, b)
		for i := 0; i < n; i++ {
			if add[i] != Add(a[i], b[i]) || sub[i] != Sub(a[i], b[i]) {
				t.Fatalf("add/sub kernel diverges at %d (a=%d b=%d)", i, a[i], b[i])
			}
		}
		// Cell-block forms over the same lanes, with a derived count lane.
		dc := make([]int64, n)
		sc := make([]int64, n)
		for i := 0; i < n; i++ {
			dc[i] = int64(a[i] % 1024)
			sc[i] = -int64(b[i] % 1024)
		}
		dk := append([]uint64(nil), a...)
		df := append([]uint64(nil), b...)
		wc := append([]int64(nil), dc...)
		MergeCells(dc, dk, df, sc, a, b)
		for i := 0; i < n; i++ {
			if dc[i] != wc[i]+sc[i] || dk[i] != Add(a[i], a[i]) || df[i] != Add(b[i], b[i]) {
				t.Fatalf("MergeCells diverges at %d", i)
			}
		}
		SubCells(dc, dk, df, sc, a, b)
		for i := 0; i < n; i++ {
			if dc[i] != wc[i] || dk[i] != a[i] || df[i] != b[i] {
				t.Fatalf("SubCells does not invert MergeCells at %d", i)
			}
		}
		if AllZero(a) != func() bool {
			for _, v := range a {
				if v != 0 {
					return false
				}
			}
			return true
		}() {
			t.Fatal("AllZero diverges from scalar scan")
		}
	})
}

// FuzzFingerprintVec draws the table's exponent bound from the input as
// well (any bit length, usually small), so slices mix exponents inside
// the windows with ones past them.
func FuzzFingerprintVec(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		base := binary.LittleEndian.Uint64(data[:8])
		maxExp := ^uint64(0)
		if len(data) >= 16 {
			raw := binary.LittleEndian.Uint64(data[8:16])
			maxExp = raw >> (raw & 63)
		}
		exps, alt := fuzzVecs(data[min(len(data), 16):])
		for i := 1; i < len(exps) && maxExp != ^uint64(0); i += 2 {
			exps[i] %= maxExp + 1
		}
		tab := NewPowTableBelow(base, maxExp)
		dst := make([]uint64, len(exps))
		tab.FingerprintVec(dst, exps)
		for i, e := range exps {
			if want := Pow(base, e); dst[i] != want {
				t.Fatalf("FingerprintVec[%d] = %d, Pow(%d) = %d (maxExp %d)", i, dst[i], e, want, maxExp)
			}
		}
		if len(exps) > 0 {
			tb := NewPowTable(base ^ 0x5555555555555555)
			ga, gb := PowPair(tab, tb, exps[0], alt[0])
			if ga != Pow(base, exps[0]) || gb != Pow(base^0x5555555555555555, alt[0]) {
				t.Fatalf("PowPair diverges from Pow (maxExp %d)", maxExp)
			}
		}
	})
}
