package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"sort"
	"testing"

	"dynstream/internal/hashing"
	"dynstream/internal/wire"
)

// A KeyedEdgeSketch materializes on first touch. These tests hold it
// to an eagerly materialized twin: whatever sequence of Add, AddBatch
// and Merge reaches a table, laziness must not be observable in its
// bytes, generation counter, space accounting or decode results.

// eagerKeyed is the reference: the same table with its hash bank and
// power tables built up front, as the constructor used to.
func eagerKeyed(seed uint64, n, capacity int) *KeyedEdgeSketch {
	t := NewKeyedEdgeSketch(seed, n, capacity)
	t.materialize()
	return t
}

// referencePeel is the full-lane peeling decode of t's state: the dense
// reference table loaded from t's bytes, swept bucket by bucket.
func referencePeel(t *KeyedEdgeSketch) map[uint64]keyedAgg {
	g := newKeyedEdgeSketchGeom(t.seed, t.n, t.rows, t.cells)
	g.materialize()
	d := &denseKeyed{geom: g}
	enc, _ := t.MarshalBinary() // cannot fail
	d.UnmarshalBinary(enc)
	return d.peel()
}

// keyedStream is a seeded random update stream with churn: about a
// quarter of the updates are immediately reversed, and multiplicities
// vary in sign and size.
func keyedStream(seed uint64, n, count int) []KeyedEdgeUpdate {
	rng := hashing.NewSplitMix64(seed)
	var out []KeyedEdgeUpdate
	for i := 0; i < count; i++ {
		u := KeyedEdgeUpdate{W: int(rng.Next() % uint64(n)), V: int(rng.Next() % uint64(n)),
			Delta: int64(rng.Next()%5) - 2} // includes zero-delta updates
		out = append(out, u)
		if rng.Next()%4 == 0 {
			out = append(out, KeyedEdgeUpdate{W: u.W, V: u.V, Delta: -u.Delta})
		}
	}
	return out
}

// inverse returns the stream that cancels s exactly.
func inverse(s []KeyedEdgeUpdate) []KeyedEdgeUpdate {
	out := make([]KeyedEdgeUpdate, len(s))
	for i, u := range s {
		out[len(s)-1-i] = KeyedEdgeUpdate{W: u.W, V: u.V, Delta: -u.Delta}
	}
	return out
}

func addEach(t *KeyedEdgeSketch, s []KeyedEdgeUpdate) {
	for _, u := range s {
		t.Add(u.W, u.V, u.Delta)
	}
}

func addBatched(t *KeyedEdgeSketch, s []KeyedEdgeUpdate) {
	for i := 0; i < len(s); i += 37 {
		end := i + 37
		if end > len(s) {
			end = len(s)
		}
		t.AddBatch(s[i:end])
	}
	t.AddBatch(nil)
}

// sameKeyed asserts every observable of got equals want's.
func sameKeyed(t *testing.T, name string, got, want *KeyedEdgeSketch, n int) {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: MarshalBinary differs from the eager reference", name)
	}
	if got.Gen() != want.Gen() {
		t.Fatalf("%s: Gen %d, eager reference %d", name, got.Gen(), want.Gen())
	}
	if got.SpaceWords() != want.SpaceWords() {
		t.Fatalf("%s: SpaceWords %d, eager reference %d", name, got.SpaceWords(), want.SpaceWords())
	}
	if got.IsZero() != want.IsZero() {
		t.Fatalf("%s: IsZero %v, eager reference %v", name, got.IsZero(), want.IsZero())
	}
	gk, wk := got.Keys(), want.Keys()
	sort.Ints(gk)
	sort.Ints(wk)
	if len(gk) != len(wk) {
		t.Fatalf("%s: %d keys, eager reference %d", name, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("%s: key %d is %d, eager reference %d", name, i, gk[i], wk[i])
		}
	}
	for v := 0; v < n; v++ {
		gw, gok := got.DecodeKey(v)
		ww, wok := want.DecodeKey(v)
		if gw != ww || gok != wok {
			t.Fatalf("%s: DecodeKey(%d) = (%d,%v), eager reference (%d,%v)", name, v, gw, gok, ww, wok)
		}
	}
	// The compact peel against the full-lane oracle, aggregate for
	// aggregate (want is materialized, so the oracle can run on it).
	samePeel(t, name, got, new(PeelScratch), peeled(want, referencePeel(want)))
}

func TestKeyedLazyMatchesEager(t *testing.T) {
	const n = 120
	for seed := uint64(1); seed <= 4; seed++ {
		a := keyedStream(hashing.Mix(seed, 1), n, 400)
		b := keyedStream(hashing.Mix(seed, 2), n, 300)
		heavy := keyedStream(hashing.Mix(seed, 3), n, 4000) // overloads the table: peeling gets stuck
		cancel := append(append([]KeyedEdgeUpdate(nil), a...), inverse(a)...)
		for _, sc := range []struct {
			name     string
			recv     []KeyedEdgeUpdate // applied to the receiver
			src      []KeyedEdgeUpdate // applied to the merge source
			merge    bool
			capacity int
		}{
			{"untouched", nil, nil, false, 64},
			{"adds-only", a, nil, false, 64},
			{"lazy×lazy", nil, nil, true, 64},
			{"lazy×materialized", nil, b, true, 64},
			{"materialized×lazy", a, nil, true, 64},
			{"materialized×materialized", a, b, true, 64},
			{"cancel-to-zero", cancel, nil, false, 64},
			{"cancel-to-zero×lazy", cancel, nil, true, 64},
			{"lazy×cancel-to-zero", nil, cancel, true, 64},
			{"merge-cancels", a, inverse(a), true, 64},
			{"overloaded", heavy, b, true, 8},
		} {
			for _, mode := range []struct {
				name string
				add  func(*KeyedEdgeSketch, []KeyedEdgeUpdate)
			}{{"Add", addEach}, {"AddBatch", addBatched}} {
				build := func(mk func(uint64, int, int) *KeyedEdgeSketch) *KeyedEdgeSketch {
					recv := mk(seed, n, sc.capacity)
					mode.add(recv, sc.recv)
					if sc.merge {
						src := mk(seed, n, sc.capacity)
						mode.add(src, sc.src)
						before, _ := src.MarshalBinary()
						if err := recv.Merge(src); err != nil {
							t.Fatal(err)
						}
						if after, _ := src.MarshalBinary(); !bytes.Equal(before, after) {
							t.Fatalf("%s/%s: Merge changed its source", sc.name, mode.name)
						}
						// The receiver owns its state: later updates to the
						// source must not reach it.
						src.Add(1, 2, 7)
					}
					return recv
				}
				lazy, eager := build(NewKeyedEdgeSketch), build(eagerKeyed)
				name := sc.name + "/" + mode.name
				sameKeyed(t, name, lazy, eager, n)
				if len(sc.recv) == 0 && len(sc.src) == 0 && lazy.Touched() {
					t.Errorf("%s: a table no update reached materialized", name)
				}
				// Laziness survives nothing it should not: after more
				// updates the two stay equal.
				mode.add(lazy, b)
				mode.add(eager, b)
				sameKeyed(t, name+"/then-more", lazy, eager, n)
			}
		}
	}
}

func TestKeyedUnmaterializedMarshalRoundTrip(t *testing.T) {
	lazy := NewKeyedEdgeSketch(9, 50, 16)
	enc, err := lazy.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eagerKeyed(9, 50, 16).MarshalBinary()
	if !bytes.Equal(enc, want) {
		t.Fatal("an unmaterialized table does not marshal as a zero table")
	}
	var back KeyedEdgeSketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if !back.IsZero() || back.Gen() != 1 {
		t.Fatalf("decoded zero table: IsZero=%v gen=%d, want true and 1", back.IsZero(), back.Gen())
	}
	lazy.Add(3, 4, 1)
	if err := back.Merge(lazy); err != nil {
		t.Fatal(err)
	}
	if w, ok := back.DecodeKey(4); !ok || w != 3 {
		t.Fatalf("decoded table after merge: (%d,%v), want (3,true)", w, ok)
	}
}

// keyedHeader is a KeyedEdgeSketch encoding's five header words.
func keyedHeader(seed, n, rows, cells uint64) []byte {
	var b []byte
	for _, v := range []uint64{wire.TagKeyed, seed, n, rows, cells} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func TestKeyedUnmarshalBoundedByInput(t *testing.T) {
	// 40 bytes that used to request 16 × 2^30 buckets × 40 B before
	// reading any of them.
	var s KeyedEdgeSketch
	err := s.UnmarshalBinary(keyedHeader(1, 100, 16, 1<<30))
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("oversized geometry: %v, want errCorrupt", err)
	}
	good, _ := NewKeyedEdgeSketch(1, 100, 8).MarshalBinary()
	for _, bad := range [][]byte{good[:len(good)-1], append(append([]byte(nil), good...), 0)} {
		if err := s.UnmarshalBinary(bad); !errors.Is(err, errCorrupt) {
			t.Fatalf("length %d (want %d): %v, want errCorrupt", len(bad), len(good), err)
		}
	}
}

// FuzzKeyedUnmarshal: arbitrary bytes never panic the decoder, never
// make it allocate more than a constant times what they carry, and
// whatever decodes re-encodes to the same bytes.
func FuzzKeyedUnmarshal(f *testing.F) {
	small := NewKeyedEdgeSketch(5, 40, 4)
	small.Add(1, 2, 1)
	enc, _ := small.MarshalBinary()
	f.Add(enc)
	f.Add(enc[:len(enc)-8])
	f.Add(keyedHeader(1, 100, 16, 1<<30))
	f.Add(keyedHeader(1, 100, 1<<60, 1<<4))
	f.Add(append(keyedHeader(7, 9, 1, 1), make([]byte, keyedBucketBytes)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Lanes are 1× the payload; hash bank and the two power tables
		// are a fixed ~5 KB; the rest is slack for the runtime.
		budget := uint64(1<<16 + 4*len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var s KeyedEdgeSketch
		err := s.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), got, budget)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		back, err := s.MarshalBinary()
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted encoding does not round-trip (err %v)", err)
		}
	})
}

// TestPeelWorkInsertKeepsSweepOrder pins the one path no reachable
// table state exercises: a peeled key landing on a bucket that held
// zero. The bucket must join the work set in index order, with the
// sweep cursor still on the bucket it was visiting.
func TestPeelWorkInsertKeepsSweepOrder(t *testing.T) {
	work := peelWork{{idx: 3}, {idx: 10}, {idx: 20}}
	cursor := 1 // visiting bucket 10
	work.at(10, &cursor).edgeCount = 5
	if len(work) != 3 || cursor != 1 {
		t.Fatalf("lookup of a present bucket changed the set: len %d cursor %d", len(work), cursor)
	}
	work.at(15, &cursor).edgeCount = 7 // ahead of the cursor: visited this pass
	work.at(1, &cursor).edgeCount = 9  // behind it: visited next pass
	work.at(30, &cursor).edgeCount = 11
	var idx []int
	for _, b := range work {
		idx = append(idx, b.idx)
	}
	if want := []int{1, 3, 10, 15, 20, 30}; !slices.Equal(idx, want) {
		t.Fatalf("work set order %v, want %v", idx, want)
	}
	if work[cursor].idx != 10 || work[cursor].agg.edgeCount != 5 {
		t.Fatalf("cursor moved off bucket 10: now at %d", work[cursor].idx)
	}
	if work[3].agg.edgeCount != 7 || work[0].agg.edgeCount != 9 || work[5].agg.edgeCount != 11 {
		t.Fatal("at returned an accumulator other than the inserted bucket's")
	}
}
