package hashing

import "testing"

func BenchmarkSplitMix64(b *testing.B) {
	rng := NewSplitMix64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = rng.Next()
	}
	_ = sink
}

func BenchmarkPolyHashDegree6(b *testing.B) {
	h := NewPoly(2, 6)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = h.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkPolyLevel(b *testing.B) {
	h := NewPoly(3, 8)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = h.Level(uint64(i))
	}
	_ = sink
}

func BenchmarkMix(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Mix(4, uint64(i), 7)
	}
	_ = sink
}

func BenchmarkPolyBankHash9(b *testing.B) {
	// 9 degree-6 lanes — the 3-level × 3-row prefix a typical AGM
	// update consumes; compare against 9× BenchmarkPolyHashDegree6.
	polys := make([]*Poly, 9)
	for i := range polys {
		polys[i] = NewPoly(Mix(0xbeef, uint64(i)), 6)
	}
	bank := NewPolyBank(polys...)
	dst := make([]uint64, len(polys))
	for i := 0; i < b.N; i++ {
		bank.HashPrefix(uint64(i)*0x9e3779b97f4a7c15, dst)
	}
}

func BenchmarkPolyLevelPow(b *testing.B) {
	// The level draw of a call site that shares the key's powers with
	// other hashes; compare against BenchmarkPolyLevel.
	h := NewPoly(3, 8)
	var pw Powers
	PowersOf(0x9e3779b97f4a7c15, &pw)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += h.LevelPow(&pw)
	}
	_ = sink
}
