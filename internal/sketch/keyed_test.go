package sketch

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
	"dynstream/internal/wire"
)

func TestKeyedEmpty(t *testing.T) {
	k := NewKeyedEdgeSketch(1, 100, 8)
	if _, ok := k.DecodeKey(5); ok {
		t.Error("empty table decoded a key")
	}
}

func TestKeyedSingleEdgePerKey(t *testing.T) {
	const n = 200
	k := NewKeyedEdgeSketch(2, n, 32)
	// 20 outside keys, each with exactly one inside edge.
	for v := 0; v < 20; v++ {
		k.Add(100+v, v, 1)
	}
	for v := 0; v < 20; v++ {
		w, ok := k.DecodeKey(v)
		if !ok {
			t.Errorf("key %d failed to decode", v)
			continue
		}
		if w != 100+v {
			t.Errorf("key %d: got inside endpoint %d, want %d", v, w, 100+v)
		}
	}
}

func TestKeyedAbsentKey(t *testing.T) {
	const n = 100
	k := NewKeyedEdgeSketch(3, n, 16)
	for v := 0; v < 10; v++ {
		k.Add(50+v, v, 1)
	}
	misses := 0
	for v := 20; v < 40; v++ {
		if _, ok := k.DecodeKey(v); ok {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d absent keys spuriously decoded", misses)
	}
}

func TestKeyedDeletion(t *testing.T) {
	const n = 100
	k := NewKeyedEdgeSketch(4, n, 16)
	k.Add(10, 1, 1)
	k.Add(11, 1, 1)
	// Key 1 has two edges: one-sparse recovery must fail...
	if _, ok := k.DecodeKey(1); ok {
		t.Error("two-edge key decoded as one-sparse")
	}
	// ...until one is deleted.
	k.Add(11, 1, -1)
	w, ok := k.DecodeKey(1)
	if !ok || w != 10 {
		t.Errorf("after deletion: (%d,%v), want (10,true)", w, ok)
	}
}

func TestKeyedMultiplicity(t *testing.T) {
	const n = 100
	k := NewKeyedEdgeSketch(5, n, 16)
	k.Add(10, 2, 3) // multigraph: multiplicity 3, still one distinct edge
	w, ok := k.DecodeKey(2)
	if !ok || w != 10 {
		t.Errorf("multiplicity edge: (%d,%v), want (10,true)", w, ok)
	}
}

func TestKeyedManyKeysWithinCapacity(t *testing.T) {
	const n = 1000
	const keys = 50
	decodedTotal := 0
	for trial := uint64(0); trial < 10; trial++ {
		k := NewKeyedEdgeSketch(hashing.Mix(6, trial), n, keys)
		for v := 0; v < keys; v++ {
			k.Add(500+v, v, 1)
		}
		for v := 0; v < keys; v++ {
			if w, ok := k.DecodeKey(v); ok && w == 500+v {
				decodedTotal++
			}
		}
	}
	// Each key succeeds unless all 3 of its buckets collide with other
	// keys; at 2x capacity that is rare but not impossible. Demand 95%.
	if decodedTotal < 10*keys*95/100 {
		t.Errorf("decoded %d/%d key-edge pairs", decodedTotal, 10*keys)
	}
}

func TestKeyedSpaceWords(t *testing.T) {
	small := NewKeyedEdgeSketch(7, 100, 8)
	large := NewKeyedEdgeSketch(7, 100, 80)
	if small.SpaceWords() <= 0 || large.SpaceWords() <= small.SpaceWords() {
		t.Error("space accounting wrong")
	}
}

// fullWidth gives a touched table power tables over every uint64
// exponent in place of the ones materialize sizes to n and n².
func fullWidth(t *KeyedEdgeSketch) *KeyedEdgeSketch {
	t.keyTab, t.edgeTab = *field.NewPowTable(t.keyBase), *field.NewPowTable(t.edgeBase)
	return t
}

// TestKeyedBoundedTablesMatchFull: the exponent bounds of a table's
// power tables decide cost only. Updates inside the graph, updates with
// an endpoint ≥ n, and a decoded state of hostile bucket sums — pure
// buckets of keys ≥ n and edge codes ≥ n², and noise — give the same
// bytes, keys and decodes through tables sized to n and n² as through
// full-width ones.
func TestKeyedBoundedTablesMatchFull(t *testing.T) {
	const n, capacity, seed = 64, 24, 41
	same := func(name string, a, b *KeyedEdgeSketch) {
		t.Helper()
		ea, _ := a.MarshalBinary()
		eb, _ := b.MarshalBinary()
		if !bytes.Equal(ea, eb) {
			t.Fatalf("%s: encodings differ", name)
		}
		ka, kb := a.Keys(), b.Keys()
		slices.Sort(ka)
		slices.Sort(kb)
		if !slices.Equal(ka, kb) {
			t.Fatalf("%s: keys %v, full-width %v", name, ka, kb)
		}
		for _, v := range append(ka, 0, n-1, n, 2*n, 1<<40) {
			for _, v := range []int{v - 1, v, v + 1} {
				wa, oka := a.DecodeKey(v)
				wb, okb := b.DecodeKey(v)
				if wa != wb || oka != okb {
					t.Fatalf("%s: DecodeKey(%d) = %d %v, full-width %d %v", name, v, wa, oka, wb, okb)
				}
			}
		}
	}

	inGraph := keyedStream(42, n, 400)
	rng := hashing.NewSplitMix64(43)
	var outside []KeyedEdgeUpdate // w or v ≥ n: edge codes past n², keys past n
	for i := 0; i < 40; i++ {
		w, v := int(rng.Next()%n), int(rng.Next()%n)
		switch i % 3 {
		case 0:
			v += n
		case 1:
			w += n * int(1+rng.Next()%8)
		default:
			v = int(rng.Next() >> 20)
		}
		outside = append(outside, KeyedEdgeUpdate{W: w, V: v, Delta: int64(1 + i%2)})
	}
	for _, stream := range []struct {
		name string
		ups  []KeyedEdgeUpdate
	}{{"in graph", inGraph}, {"outside", outside}, {"mixed", append(slices.Clone(inGraph), outside...)}} {
		bounded, full := eagerKeyed(seed, n, capacity), fullWidth(eagerKeyed(seed, n, capacity))
		for _, u := range stream.ups[:len(stream.ups)/2] {
			bounded.Add(u.W, u.V, u.Delta)
			full.Add(u.W, u.V, u.Delta)
		}
		bounded.AddBatch(stream.ups[len(stream.ups)/2:])
		full.AddBatch(stream.ups[len(stream.ups)/2:])
		same(stream.name, bounded, full)
	}

	// Hostile sums: each crafted key's bucket in every row holds one
	// pure entry (count 1, key ≥ n, edge code ≥ n²), and further
	// buckets hold random words.
	geom := eagerKeyed(seed, n, capacity)
	buckets := make([][5]uint64, geom.rows*geom.cells)
	hs := make([]uint64, geom.rows)
	for i := 0; i < 6; i++ {
		key := uint64(n + i*37)
		if i%2 == 1 {
			key = rng.Next() % field.P
		}
		e := uint64(n*n) + rng.Next()%(1<<50)*uint64(n) + key%n
		geom.bank.HashPrefix(key, hs)
		for r, h := range hs {
			buckets[r*geom.cells+int(h%uint64(geom.cells))] = [5]uint64{1, key,
				field.Pow(geom.keyBase, key), e, field.Pow(geom.edgeBase, e)}
		}
	}
	for i := 0; i < 8; i++ {
		buckets[rng.Next()%uint64(len(buckets))] = [5]uint64{rng.Next() % 5, rng.Next() % field.P,
			rng.Next() % field.P, rng.Next() % field.P, rng.Next() % field.P}
	}
	w := &wire.Writer{}
	for _, v := range []uint64{wire.TagKeyed, seed, n, uint64(geom.rows), uint64(geom.cells)} {
		w.U64(v)
	}
	for _, b := range buckets {
		for _, v := range b {
			w.U64(v)
		}
	}
	var bounded, full KeyedEdgeSketch
	if err := bounded.UnmarshalBinary(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := full.UnmarshalBinary(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(bounded.Keys()) == 0 {
		t.Fatal("hostile table recovered no key: the crafted pure buckets are not reached")
	}
	same("hostile", &bounded, fullWidth(&full))
}

// TestKeyedMergeRejectsMismatchedN: tables that differ only in n hash
// alike but size their power tables differently, so Merge refuses them
// and its error names both n values.
func TestKeyedMergeRejectsMismatchedN(t *testing.T) {
	recv, src := NewKeyedEdgeSketch(5, 64, 16), NewKeyedEdgeSketch(5, 65, 16)
	src.Add(1, 2, 1)
	err := recv.Merge(src)
	if err == nil || !strings.Contains(err.Error(), "n 64/65") {
		t.Fatalf("Merge across n 64/65: err = %v", err)
	}
	if recv.Touched() || !recv.IsZero() {
		t.Fatal("a refused Merge changed the receiver")
	}
}
