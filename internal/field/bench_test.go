package field

import (
	"fmt"
	"testing"
)

func BenchmarkMul(b *testing.B) {
	x, y := uint64(0x123456789abcdef), uint64(0xfedcba987654321)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Mul(x, sink^y)
	}
	_ = sink
}

func BenchmarkPow(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Pow(31337, uint64(i)&0xfffff)
	}
	_ = sink
}

func BenchmarkPowTable(b *testing.B) {
	tab := NewPowTable(31337)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = tab.Pow(uint64(i) & 0xfffff)
	}
	_ = sink
}

func BenchmarkPowTableWide(b *testing.B) {
	// Full 61-bit exponents: the worst case (all 16 windows populated).
	tab := NewPowTable(31337)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = tab.Pow(P - 2 - uint64(i))
	}
	_ = sink
}

// BenchmarkNewPowTable builds a full table and the bounded ones a keyed
// table takes at n = 64 and n = 1 000: keys below n, edge codes below n².
func BenchmarkNewPowTable(b *testing.B) {
	var sink *PowTable
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = NewPowTable(uint64(i) + 2)
		}
	})
	for _, n := range []uint64{64, 1000} {
		for _, c := range []struct {
			name   string
			maxExp uint64
		}{{"n-1", n - 1}, {"n2-1", n*n - 1}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = NewPowTableBelow(uint64(i)+2, c.maxExp)
				}
			})
		}
	}
	_ = sink
}

func BenchmarkInv(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Inv(uint64(i) + 1)
	}
	_ = sink
}

// BenchmarkFingerprintVec measures the shared-window batch power
// evaluation against per-element table Pow (BenchmarkPowTableWide is
// the per-element baseline at the same exponent width).
func BenchmarkFingerprintVec(b *testing.B) {
	tab := NewPowTable(31337)
	const n = 64
	exps := make([]uint64, n)
	dst := make([]uint64, n)
	for i := range exps {
		exps[i] = P - 2 - uint64(i)*0x9e3779b9
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.FingerprintVec(dst, exps)
	}
}

func BenchmarkPowPair(b *testing.B) {
	ta := NewPowTable(31337)
	tb := NewPowTable(271828)
	var sa, sb uint64
	for i := 0; i < b.N; i++ {
		sa, sb = PowPair(ta, tb, P-2-uint64(i), uint64(i)*0x9e3779b9)
	}
	_, _ = sa, sb
}

func BenchmarkMergeCells(b *testing.B) {
	const n = 1024
	dc := make([]int64, n)
	sc := make([]int64, n)
	dk := make([]uint64, n)
	sk := make([]uint64, n)
	df := make([]uint64, n)
	sf := make([]uint64, n)
	for i := 0; i < n; i++ {
		sc[i] = int64(i) - 512
		sk[i] = Reduce(uint64(i) * 0x9e3779b97f4a7c15)
		sf[i] = Reduce(uint64(i) * 0xbf58476d1ce4e5b9)
	}
	b.SetBytes(n * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeCells(dc, dk, df, sc, sk, sf)
	}
}

func BenchmarkMulVec(b *testing.B) {
	const n = 1024
	x := make([]uint64, n)
	y := make([]uint64, n)
	dst := make([]uint64, n)
	for i := 0; i < n; i++ {
		x[i] = Reduce(uint64(i) * 0x9e3779b97f4a7c15)
		y[i] = Reduce(uint64(i) * 0xbf58476d1ce4e5b9)
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVec(dst, x, y)
	}
}
