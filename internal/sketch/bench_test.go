package sketch

import (
	"fmt"
	"testing"

	"dynstream/internal/hashing"
)

func BenchmarkSketchBAdd(b *testing.B) {
	s := NewSketchB(1, 32)
	rng := hashing.NewSplitMix64(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Next()%(1<<40), 1)
	}
}

func BenchmarkSketchBDecode(b *testing.B) {
	s := NewSketchB(3, 32)
	rng := hashing.NewSplitMix64(4)
	for j := 0; j < 32; j++ {
		s.Add(rng.Next()%(1<<40), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Decode(); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkSketchBMerge(b *testing.B) {
	x := NewSketchB(5, 32)
	y := NewSketchB(5, 32)
	rng := hashing.NewSplitMix64(6)
	for j := 0; j < 32; j++ {
		y.Add(rng.Next()%(1<<40), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL0SamplerAdd(b *testing.B) {
	s := NewL0Sampler(7, 1<<40, 4)
	rng := hashing.NewSplitMix64(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Next()%(1<<40), 1)
	}
}

func BenchmarkL0SamplerSample(b *testing.B) {
	s := NewL0Sampler(9, 1<<40, 4)
	rng := hashing.NewSplitMix64(10)
	for j := 0; j < 1000; j++ {
		s.Add(rng.Next()%(1<<40), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.Sample(); !ok {
			b.Fatal("sample failed")
		}
	}
}

func BenchmarkF0Add(b *testing.B) {
	f := NewF0(11, 1<<40)
	rng := hashing.NewSplitMix64(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(rng.Next()%(1<<40), 1)
	}
}

func BenchmarkKeyedEdgeSketchAdd(b *testing.B) {
	t := NewKeyedEdgeSketch(17, 1024, 64)
	rng := hashing.NewSplitMix64(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Add(rng.Intn(1024), rng.Intn(1024), 1)
	}
}

// BenchmarkKeyedFirstTouch is the cost of a pass-2 table's first batch:
// construction, materialization (row hashes and the power tables sized
// to n and n²) and one 8-update AddBatchWith.
func BenchmarkKeyedFirstTouch(b *testing.B) {
	for _, n := range []int{64, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := hashing.NewSplitMix64(21)
			batch := make([]KeyedEdgeUpdate, 8)
			for i := range batch {
				batch[i] = KeyedEdgeUpdate{W: rng.Intn(n), V: rng.Intn(n), Delta: 1}
			}
			var sc KeyedScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewKeyedEdgeSketch(uint64(i), n, 64).AddBatchWith(batch, &sc)
			}
		})
	}
}

func BenchmarkMarshalRoundTrip(b *testing.B) {
	s := NewSketchB(19, 64)
	rng := hashing.NewSplitMix64(20)
	for j := 0; j < 64; j++ {
		s.Add(rng.Next()%(1<<40), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := s.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var back SketchB
		if err := back.UnmarshalBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}
