package sketch

import (
	"bytes"
	"testing"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
)

// The batched update APIs must be bit-for-bit identical to repeated
// single updates: same cells, same marshaled bytes, same decodes. The
// workloads below exercise random signed streams and churn
// (insert-then-delete) streams, the two regimes the ingest fast path
// optimizes.

// batchWorkload returns a seeded update stream with churn: every key
// appears with mixed signs, and a suffix deletes earlier insertions so
// cancellation paths are exercised.
func batchWorkload(seed uint64, n int, universe uint64) (keys []uint64, deltas []int64) {
	rng := hashing.NewSplitMix64(seed)
	for i := 0; i < n; i++ {
		k := rng.Next() % universe
		d := int64(1)
		if rng.Next()%2 == 0 {
			d = -1
		}
		keys = append(keys, k)
		deltas = append(deltas, d)
		if rng.Next()%4 == 0 { // churn: immediately revert
			keys = append(keys, k)
			deltas = append(deltas, -d)
		}
	}
	return keys, deltas
}

func TestSketchBAddBatchEquivalence(t *testing.T) {
	keys, deltas := batchWorkload(0x5ee1, 4000, 1<<30)
	one := NewSketchB(0xbadc, 16)
	for i := range keys {
		one.Add(keys[i], deltas[i])
	}
	batched := NewSketchB(0xbadc, 16)
	for i := 0; i < len(keys); i += 97 { // ragged batch sizes
		end := i + 97
		if end > len(keys) {
			end = len(keys)
		}
		batched.AddBatch(keys[i:end], deltas[i:end])
	}
	b1, err := one.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := batched.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("AddBatch state differs from repeated Add")
	}
}

func TestSketchBAddFkeyEquivalence(t *testing.T) {
	keys, deltas := batchWorkload(0x1234, 2000, 1<<40)
	one := NewSketchB(0xfeed, 8)
	two := NewSketchB(0xfeed, 8)
	for i := range keys {
		one.Add(keys[i], deltas[i])
		two.AddFkey(keys[i], deltas[i], two.Fkey(keys[i]))
	}
	b1, _ := one.MarshalBinary()
	b2, _ := two.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("AddFkey state differs from Add")
	}
}

func TestL0SamplerAddBatchEquivalence(t *testing.T) {
	keys, deltas := batchWorkload(0xc0ffee, 3000, 1<<20)
	one := NewL0Sampler(0x11, 1<<20, 4)
	for i := range keys {
		one.Add(keys[i], deltas[i])
	}
	batched := NewL0Sampler(0x11, 1<<20, 4)
	for i := 0; i < len(keys); i += 64 {
		end := i + 64
		if end > len(keys) {
			end = len(keys)
		}
		batched.AddBatch(keys[i:end], deltas[i:end])
	}
	b1, err := one.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := batched.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("L0Sampler AddBatch state differs from repeated Add")
	}
	k1, w1, ok1 := one.Sample()
	k2, w2, ok2 := batched.Sample()
	if k1 != k2 || w1 != w2 || ok1 != ok2 {
		t.Fatalf("samples differ: (%d,%d,%v) vs (%d,%d,%v)", k1, w1, ok1, k2, w2, ok2)
	}
}

func TestL0FamilySamplersMatchStandalone(t *testing.T) {
	// Samplers of a one-family grid (round stride 1) must be
	// indistinguishable from standalone NewL0Sampler instances.
	fam := NewL0Family(0xabcd, 1<<16, 4)
	shared := NewL0Grid([]*L0Family{fam}, 3)
	keys, deltas := batchWorkload(0x42, 2000, 1<<16)
	for i := range shared {
		solo := NewL0Sampler(0xabcd, 1<<16, 4)
		for j := range keys {
			if j%3 == i {
				solo.Add(keys[j], deltas[j])
				shared[i].Add(keys[j], deltas[j])
			}
		}
		b1, _ := solo.MarshalBinary()
		b2, _ := shared[i].MarshalBinary()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("family sampler %d differs from standalone", i)
		}
	}
}

func TestL0SamplerGridMatchesStandalone(t *testing.T) {
	// Samplers sliced out of the vertex-major grid arena must be
	// indistinguishable from standalone per-family samplers.
	const rounds, n = 3, 4
	fams := make([]*L0Family, rounds)
	for r := range fams {
		fams[r] = NewL0Family(0x1000+uint64(r), 1<<16, 4)
	}
	grid := NewSamplerGrid(fams, n)
	keys, deltas := batchWorkload(0x99, 2000, 1<<16)
	for r := 0; r < rounds; r++ {
		for v := 0; v < n; v++ {
			solo := NewL0Sampler(0x1000+uint64(r), 1<<16, 4)
			for j := range keys {
				if j%n == v {
					solo.Add(keys[j], deltas[j])
					grid[r][v].Add(keys[j], deltas[j])
				}
			}
			b1, _ := solo.MarshalBinary()
			b2, _ := grid[r][v].MarshalBinary()
			if !bytes.Equal(b1, b2) {
				t.Fatalf("grid sampler (%d,%d) differs from standalone", r, v)
			}
		}
	}
}

func TestL0HintEquivalence(t *testing.T) {
	fam := NewL0Family(0x77, 1<<18, 4)
	plain := fam.NewSampler()
	hinted := fam.NewSampler()
	keys, deltas := batchWorkload(0x31337, 2500, 1<<18)
	var h L0Hint
	for i := range keys {
		plain.Add(keys[i], deltas[i])
		if deltas[i] != 0 {
			fam.Hint(keys[i], &h)
			hinted.AddHint(keys[i], deltas[i], &h)
		}
	}
	b1, _ := plain.MarshalBinary()
	b2, _ := hinted.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("AddHint state differs from Add")
	}
}

func TestKeyedEdgeSketchAddBatchEquivalence(t *testing.T) {
	const n = 300
	rng := hashing.NewSplitMix64(0x909)
	var batch []KeyedEdgeUpdate
	for i := 0; i < 3000; i++ {
		u := KeyedEdgeUpdate{
			W: int(rng.Next() % n), V: int(rng.Next() % n), Delta: 1,
		}
		if rng.Next()%2 == 0 {
			u.Delta = -1
		}
		batch = append(batch, u)
		if rng.Next()%4 == 0 { // churn
			rev := u
			rev.Delta = -u.Delta
			batch = append(batch, rev)
		}
	}
	one := NewKeyedEdgeSketch(0x66, n, 64)
	for _, u := range batch {
		one.Add(u.W, u.V, u.Delta)
	}
	batched := NewKeyedEdgeSketch(0x66, n, 64)
	for i := 0; i < len(batch); i += 113 {
		end := i + 113
		if end > len(batch) {
			end = len(batch)
		}
		batched.AddBatch(batch[i:end])
	}
	b1, _ := one.MarshalBinary()
	b2, _ := batched.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("buckets differ after AddBatch")
	}
	for v := 0; v < n; v++ {
		w1, ok1 := one.DecodeKey(v)
		w2, ok2 := batched.DecodeKey(v)
		if w1 != w2 || ok1 != ok2 {
			t.Fatalf("DecodeKey(%d) differs: (%d,%v) vs (%d,%v)", v, w1, ok1, w2, ok2)
		}
	}
}

// TestKeyedFirstTouchAllocs: creating a table and giving it its first
// batch through a warm scratch allocates the table, its bank's lanes,
// one slab for both power tables' windows and the bucket list: four
// objects. A bank, power tables and row Polys of their own read 15.
func TestKeyedFirstTouchAllocs(t *testing.T) {
	const n = 64
	rng := hashing.NewSplitMix64(0x7f1)
	batch := make([]KeyedEdgeUpdate, 8)
	for i := range batch {
		batch[i] = KeyedEdgeUpdate{W: int(rng.Next() % n), V: int(rng.Next() % n), Delta: 1}
	}
	var sc KeyedScratch
	var tbl *KeyedEdgeSketch
	allocs := testing.AllocsPerRun(20, func() {
		tbl = NewKeyedEdgeSketch(0x31, n, 64)
		tbl.AddBatchWith(batch, &sc)
	})
	if allocs > 4 {
		t.Errorf("first-touch AddBatchWith: %v allocs per run, want at most 4", allocs)
	}
	ref := NewKeyedEdgeSketch(0x31, n, 64)
	for _, u := range batch {
		ref.Add(u.W, u.V, u.Delta)
	}
	b1, _ := tbl.MarshalBinary()
	b2, _ := ref.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Error("a first-touch batch left the table differently from per-update Adds")
	}
}

// TestKeyedAddBatchWithAllocs: on a materialized table, a batch add
// through a scratch that has served a batch as long allocates nothing,
// and leaves the table as AddBatch does.
func TestKeyedAddBatchWithAllocs(t *testing.T) {
	const n = 300
	rng := hashing.NewSplitMix64(0x90a)
	batch := make([]KeyedEdgeUpdate, 500)
	for i := range batch {
		batch[i] = KeyedEdgeUpdate{W: int(rng.Next() % n), V: int(rng.Next() % n), Delta: int64(rng.Next()%5) - 2}
	}
	with, plain := NewKeyedEdgeSketch(0x67, n, 64), NewKeyedEdgeSketch(0x67, n, 64)
	var sc KeyedScratch
	with.AddBatchWith(batch, &sc)
	plain.AddBatch(batch)
	if allocs := testing.AllocsPerRun(10, func() { with.AddBatchWith(batch[:300], &sc) }); allocs != 0 {
		t.Errorf("AddBatchWith on a materialized table: %v allocs per run, want 0", allocs)
	}
	for i := 0; i < 11; i++ { // AllocsPerRun's warm-up call plus its ten runs
		plain.AddBatch(batch[:300])
	}
	b1, _ := with.MarshalBinary()
	b2, _ := plain.MarshalBinary()
	if !bytes.Equal(b1, b2) || with.Gen() != plain.Gen() {
		t.Errorf("AddBatchWith left the table differently from AddBatch (gen %d vs %d)", with.Gen(), plain.Gen())
	}
}

func TestF0AddBatchEquivalence(t *testing.T) {
	keys, deltas := batchWorkload(0xf0f0, 4000, 1<<16)
	one := NewF0(0x21, 1<<16)
	for i := range keys {
		one.Add(keys[i], deltas[i])
	}
	batched := NewF0(0x21, 1<<16)
	for i := 0; i < len(keys); i += 200 {
		end := i + 200
		if end > len(keys) {
			end = len(keys)
		}
		batched.AddBatch(keys[i:end], deltas[i:end])
	}
	for j := range one.acc {
		for b := range one.acc[j] {
			if one.acc[j][b] != batched.acc[j][b] {
				t.Fatalf("F0 accumulator (%d,%d) differs", j, b)
			}
		}
	}
}

func TestCellDecodeTableMatchesDecode(t *testing.T) {
	rng := hashing.NewSplitMix64(0x3c3c)
	for trial := 0; trial < 200; trial++ {
		base := rng.Next()
		var c Cell
		// One-sparse, two-sparse, and empty cells.
		nItems := int(rng.Next() % 3)
		tab := field.NewPowTable(base)
		for i := 0; i < nItems; i++ {
			key := rng.Next() % (1 << 48)
			c.Update(key, int64(1+rng.Next()%3), tab.Pow(field.Reduce(key)))
		}
		k1, w1, ok1 := c.Decode(tab.Base())
		k2, w2, f2, ok2 := c.DecodeTable(tab)
		if ok2 && f2 != field.Pow(tab.Base(), k2) {
			t.Fatalf("trial %d: DecodeTable's power %d is not r^%d", trial, f2, k2)
		}
		if k1 != k2 || w1 != w2 || ok1 != ok2 {
			t.Fatalf("trial %d: Decode (%d,%d,%v) != DecodeTable (%d,%d,%v)",
				trial, k1, w1, ok1, k2, w2, ok2)
		}
	}
}
