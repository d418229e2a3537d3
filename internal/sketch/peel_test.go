package sketch

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"dynstream/internal/hashing"
)

// Decode allocates nothing it does not keep: a keyed table peels
// through caller-owned scratch, and a scratch SketchB decodes in place.
// These tests hold the scratch peel to the map-based reference and pin
// what both decodes allocate once warm.

// peelCases are tables of the three kinds a peel meets: random streams
// (some overloading the table, so peeling gets stuck), streams whose
// deletions cancel most of what they inserted, and hostile states that
// refill the buckets they empty until the extraction budget runs out.
func peelCases() map[string]*KeyedEdgeSketch {
	const n = 120
	out := map[string]*KeyedEdgeSketch{"nil": nil, "untouched": NewKeyedEdgeSketch(1, n, 16)}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, capacity := range []int{8, 64} {
			a := keyedStream(hashing.Mix(seed, 7), n, 200)
			random := NewKeyedEdgeSketch(seed, n, capacity)
			addBatched(random, a)
			out[fmt.Sprintf("random/seed%d/cap%d", seed, capacity)] = random

			cancel := NewKeyedEdgeSketch(seed, n, capacity)
			addBatched(cancel, a)
			addBatched(cancel, inverse(a[:len(a)*3/4]))
			out[fmt.Sprintf("cancellations/seed%d/cap%d", seed, capacity)] = cancel
		}
		// A key present in one hash row and absent from the others:
		// extracting it drives the other rows to minus the key, which
		// extracts again and refills the first row, forever.
		hostile := NewKeyedEdgeSketch(seed, n, 4)
		hostile.Add(3, 7, 1)
		hostile.Add(5, 9, 2)
		hostile.buckets = slices.DeleteFunc(hostile.buckets, func(b keyedBucket) bool { return b.idx >= hostile.cells })
		out[fmt.Sprintf("hostile/seed%d", seed)] = hostile
	}
	return out
}

func TestPeelMatchesMapPeel(t *testing.T) {
	cases := peelCases()
	sc := new(PeelScratch) // one scratch across every table: nothing may carry over
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	exhausted := 0
	for _, name := range names {
		tab := cases[name]
		var ref map[uint64]keyedAgg
		if tab.Touched() {
			ref = mapPeel(tab)
		}
		want := peeled(tab, ref)
		before := tab.Gen()
		if got := tab.Peel(sc); !slices.Equal(got, want) {
			t.Fatalf("%s: peel recovered %v, map-based reference %v", name, got, want)
		}
		if tab.Gen() != before {
			t.Fatalf("%s: peeling changed the table's generation", name)
		}
		if strings.HasPrefix(name, "hostile") {
			if ref != nil {
				t.Fatalf("%s: the reference decoded a state whose peel never ends", name)
			}
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("no case exhausted the extraction budget")
	}
}

// TestPeelAllocs: once its scratch has served a table, peeling that
// table again allocates nothing.
func TestPeelAllocs(t *testing.T) {
	tab := NewKeyedEdgeSketch(11, 500, 64)
	for i := 0; i < 48; i++ {
		tab.Add(i%7, 100+i, 1)
	}
	sc := new(PeelScratch)
	if keys := tab.Peel(sc); len(keys) != 48 {
		t.Fatalf("warm-up peel recovered %d keys, want 48", len(keys))
	}
	if allocs := testing.AllocsPerRun(20, func() { tab.Peel(sc) }); allocs != 0 {
		t.Errorf("peel through a warm scratch: %v allocs per run, want 0", allocs)
	}
}

var resultSink map[uint64]int64

// TestSketchBDecodeInPlaceAllocs: a scratch sketch refilled with SetTo
// and decoded in place allocates no more than building its result map
// does, and recovers what Decode recovers from the source.
func TestSketchBDecodeInPlaceAllocs(t *testing.T) {
	fam := NewSketchBFamily(3, 32, SketchConfig{})
	src := fam.New()
	for k := uint64(1); k <= 24; k++ {
		src.Add(k*1009, int64(k%3)+1)
	}
	want, ok := src.Decode()
	if !ok || len(want) != 24 {
		t.Fatalf("Decode: %d items, ok %v", len(want), ok)
	}
	scratch := fam.New()
	scratch.SetTo(src)
	if got, ok := scratch.DecodeInPlace(); !ok || !maps.Equal(got, want) {
		t.Fatalf("DecodeInPlace: %v (ok %v), Decode %v", got, ok, want)
	}
	inPlace := testing.AllocsPerRun(20, func() {
		scratch.SetTo(src)
		scratch.DecodeInPlace()
	})
	resultMap := testing.AllocsPerRun(20, func() {
		out := make(map[uint64]int64)
		for k, v := range want {
			out[k] += v
		}
		resultSink = out // a returned map lives on the heap
	})
	if inPlace > resultMap {
		t.Errorf("SetTo + DecodeInPlace: %v allocs per run, building the result map alone %v", inPlace, resultMap)
	}
	var nilSketch *SketchB
	if items, ok := nilSketch.DecodeInPlace(); items != nil || !ok {
		t.Errorf("nil sketch decodes in place to %v, %v; want nil, true", items, ok)
	}
}

// TestNilKeyedIsZeroTable: a nil table reads as a fresh one.
func TestNilKeyedIsZeroTable(t *testing.T) {
	var nilTab *KeyedEdgeSketch
	fresh := NewKeyedEdgeSketch(5, 40, 8)
	if nilTab.Gen() != fresh.Gen() || nilTab.Touched() != fresh.Touched() || nilTab.IsZero() != fresh.IsZero() ||
		len(nilTab.Keys()) != 0 || len(nilTab.Peel(new(PeelScratch))) != 0 {
		t.Fatal("a nil table does not read as the zero table")
	}
	if _, ok := nilTab.DecodeKey(3); ok {
		t.Fatal("a nil table decoded a key")
	}
	if KeyedEdgeWords(8) != fresh.SpaceWords() || KeyedEdgeWords(1) != NewKeyedEdgeSketch(5, 40, 1).SpaceWords() {
		t.Fatal("KeyedEdgeWords differs from a created table's SpaceWords")
	}
}

// TestSampleWithScratch: one scratch serves samplers of different
// families and sizes — from the zero vector to an overloaded sampler —
// each SampleWith equal to a fresh Sample and to the per-level
// reference, and a warm scratch samples without allocating.
func TestSampleWithScratch(t *testing.T) {
	const universe = 1 << 24
	var sc SampleScratch
	for _, perLevel := range []int{2, 4, 8} {
		fam := NewL0Family(uint64(perLevel), universe, perLevel)
		for _, size := range []int{0, 1, 3, 40, 600} {
			keys, deltas := batchWorkload(uint64(size+perLevel), size, universe)
			s, ref := fam.NewSampler(), newRefSampler(fam)
			s.AddBatch(keys, deltas)
			ref.AddBatch(keys, deltas)
			k1, w1, ok1 := s.SampleWith(&sc)
			k2, w2, ok2 := s.Sample()
			k3, w3, ok3 := ref.Sample()
			if k1 != k2 || w1 != w2 || ok1 != ok2 || k1 != k3 || w1 != w3 || ok1 != ok3 {
				t.Fatalf("perLevel %d, %d updates: SampleWith (%d,%d,%v), Sample (%d,%d,%v), reference (%d,%d,%v)",
					perLevel, size, k1, w1, ok1, k2, w2, ok2, k3, w3, ok3)
			}
			if size > 0 && !ok1 {
				t.Errorf("perLevel %d, %d updates: nothing sampled", perLevel, size)
			}
		}
	}
	fam := NewL0Family(9, universe, 4)
	s := fam.NewSampler()
	s.AddBatch(batchWorkload(3, 40, universe))
	s.SampleWith(&sc)
	if allocs := testing.AllocsPerRun(20, func() { s.SampleWith(&sc) }); allocs != 0 {
		t.Errorf("SampleWith through a warm scratch: %v allocs per run, want 0", allocs)
	}
}

// TestFoldItems: a peel's extractions fold to the net vector in key
// order — a key extracted twice sums, a key whose sum is zero is
// dropped — so the sample's minimum choice hash is found in key order
// and a tie goes to the smaller key.
func TestFoldItems(t *testing.T) {
	for _, c := range []struct{ in, want []sampleItem }{
		{nil, []sampleItem{}},
		{[]sampleItem{{7, 1}}, []sampleItem{{7, 1}}},
		{[]sampleItem{{9, 2}, {3, 1}, {9, -2}}, []sampleItem{{3, 1}}},
		{[]sampleItem{{5, 1}, {3, 2}, {5, 1}, {3, -2}, {1, -4}}, []sampleItem{{1, -4}, {5, 2}}},
		{[]sampleItem{{4, 1}, {4, -1}, {2, 3}, {2, -3}}, []sampleItem{}},
	} {
		if got := foldItems(slices.Clone(c.in)); !slices.Equal(got, c.want) && len(got)+len(c.want) > 0 {
			t.Errorf("foldItems(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
