package sketch

import (
	"testing"

	"dynstream/internal/hashing"
)

func TestL0EmptyReturnsNotOK(t *testing.T) {
	s := NewL0Sampler(1, 1<<20, 4)
	if _, _, ok := s.Sample(); ok {
		t.Error("empty sampler returned a sample")
	}
}

func TestL0SingleItem(t *testing.T) {
	s := NewL0Sampler(2, 1<<20, 4)
	s.Add(777, 5)
	k, w, ok := s.Sample()
	if !ok || k != 777 || w != 5 {
		t.Errorf("sample = (%d,%d,%v), want (777,5,true)", k, w, ok)
	}
}

func TestL0SampleInSupport(t *testing.T) {
	for trial := uint64(0); trial < 30; trial++ {
		s := NewL0Sampler(hashing.Mix(3, trial), 1<<30, 4)
		rng := hashing.NewSplitMix64(trial + 100)
		support := map[uint64]int64{}
		for i := 0; i < 200; i++ {
			k := rng.Next() % (1 << 30)
			support[k] = int64(rng.Intn(5) + 1)
		}
		for k, v := range support {
			s.Add(k, v)
		}
		k, w, ok := s.Sample()
		if !ok {
			t.Fatalf("trial %d: sample failed on 200-item support", trial)
		}
		if support[k] != w {
			t.Fatalf("trial %d: sampled (%d,%d) not in support", trial, k, w)
		}
	}
}

func TestL0SurvivesDeletions(t *testing.T) {
	s := NewL0Sampler(4, 1<<20, 4)
	for k := uint64(0); k < 500; k++ {
		s.Add(k, 1)
	}
	for k := uint64(1); k < 500; k++ {
		s.Add(k, -1)
	}
	k, w, ok := s.Sample()
	if !ok || k != 0 || w != 1 {
		t.Errorf("sample = (%d,%d,%v), want (0,1,true)", k, w, ok)
	}
}

func TestL0FullCancellation(t *testing.T) {
	s := NewL0Sampler(5, 1<<20, 4)
	for k := uint64(0); k < 300; k++ {
		s.Add(k, 1)
		s.Add(k, -1)
	}
	if _, _, ok := s.Sample(); ok {
		t.Error("cancelled sampler returned a sample")
	}
}

func TestL0MergeAcrossVectors(t *testing.T) {
	// The AGM use case: merging samplers of x and y samples from
	// support(x+y); internal edges cancel.
	a := NewL0Sampler(6, 1<<20, 4)
	b := NewL0Sampler(6, 1<<20, 4)
	a.Add(11, 1)  // shared edge, +1 direction
	b.Add(11, -1) // shared edge, -1 direction: cancels
	a.Add(22, 1)  // a's outgoing edge
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	k, w, ok := a.Sample()
	if !ok || k != 22 || w != 1 {
		t.Errorf("sample = (%d,%d,%v), want (22,1,true)", k, w, ok)
	}
}

func TestL0SubInverse(t *testing.T) {
	a := NewL0Sampler(7, 1<<20, 4)
	b := NewL0Sampler(7, 1<<20, 4)
	a.Add(5, 1)
	b.Add(9, 2)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	a.AddBatch([]uint64{9}, []int64{-2}) // b's update, negated
	k, _, ok := a.Sample()
	if !ok || k != 5 {
		t.Errorf("sample key = %d, want 5", k)
	}
}

func TestL0SamplesSpread(t *testing.T) {
	// Across independent seeds, samples from a fixed 20-element support
	// should hit many distinct elements (near-uniformity smoke test).
	support := make([]uint64, 20)
	for i := range support {
		support[i] = uint64(i * 101)
	}
	seen := map[uint64]bool{}
	for trial := uint64(0); trial < 120; trial++ {
		s := NewL0Sampler(hashing.Mix(9, trial), 1<<20, 4)
		for _, k := range support {
			s.Add(k, 1)
		}
		if k, _, ok := s.Sample(); ok {
			seen[k] = true
		}
	}
	if len(seen) < 10 {
		t.Errorf("only %d/20 support elements ever sampled", len(seen))
	}
}

func TestL0SpaceWords(t *testing.T) {
	s := NewL0Sampler(10, 1<<20, 4)
	if s.SpaceWords() <= 0 {
		t.Error("space must be positive")
	}
}
