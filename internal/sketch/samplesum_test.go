package sketch

import (
	"errors"
	"fmt"
	"testing"

	"dynstream/internal/hashing"
	"dynstream/internal/wire"
)

// sampleSumRef is what SampleSum stands for: the members merged into one
// sampler, then sampled. It also returns the level that sample decoded
// at.
func sampleSumRef(ss []*L0Sampler) (key uint64, weight int64, ok bool, level int, err error) {
	var sum L0Sampler
	sum.SetTo(ss[0])
	for _, m := range ss[1:] {
		if err := sum.Merge(m); err != nil {
			return 0, 0, false, 0, err
		}
	}
	var sc SampleScratch
	key, weight, ok = sum.SampleWith(&sc)
	return key, weight, ok, sc.Level, nil
}

// TestSampleSumMatchesMerge: SampleSum over random member sets equals
// SetTo + Merge over the members followed by SampleWith — same key,
// weight and ok — for grid and standalone members, one member, all-zero
// members, and sets whose sum cancels the members' top levels; every
// member level is read at most once; and a member of another family is
// errIncompatible, as in Merge.
func TestSampleSumMatchesMerge(t *testing.T) {
	const universe = 1 << 24
	fam := NewL0Family(0x5a, universe, 4)
	rng := hashing.NewSplitMix64(3)
	var sc SampleScratch
	for trial := 0; trial < 300; trial++ {
		size := 1 + int(rng.Next()%9)
		grid := NewL0Grid([]*L0Family{fam}, size)
		ss := make([]*L0Sampler, size)
		// Each member's updates, so a later member can hold the negation.
		keys, deltas := make([][]uint64, size), make([][]int64, size)
		add := func(i int, k []uint64, d []int64) {
			ss[i].AddBatch(k, d)
			keys[i], deltas[i] = append(keys[i], k...), append(deltas[i], d...)
		}
		for i := range ss {
			ss[i] = &grid[i]
			if rng.Next()%2 == 0 {
				ss[i] = fam.NewSampler()
			}
			switch rng.Next() % 4 {
			case 0: // all-zero: untouched, or canceled back to zero
				if rng.Next()%2 == 0 {
					k, d := batchWorkload(rng.Next(), 30, universe)
					add(i, k, d)
					add(i, k, negate(d))
				}
			case 1: // the negation of an earlier member, so the sum's top
				// levels cancel
				if i > 0 {
					add(i, keys[i-1], negate(deltas[i-1]))
					add(i, []uint64{rng.Next() % universe}, []int64{1})
					break
				}
				fallthrough
			default:
				k, d := batchWorkload(rng.Next(), 1+int(rng.Next()%200), universe)
				add(i, k, d)
			}
		}
		name := fmt.Sprintf("trial %d (%d members)", trial, size)
		k1, w1, ok1, err1 := SampleSum(ss, &sc)
		k2, w2, ok2, lv2, err2 := sampleSumRef(ss)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: SampleSum err %v, merge err %v", name, err1, err2)
		}
		if k1 != k2 || w1 != w2 || ok1 != ok2 || sc.Level != lv2 {
			t.Fatalf("%s: SampleSum (%d,%d,%v) at level %d, merged (%d,%d,%v) at %d", name, k1, w1, ok1, sc.Level, k2, w2, ok2, lv2)
		}
		// The pick survives the level it was read at; no pick reads 0.
		var h L0Hint
		if fam.Hint(k1, &h); ok1 && h.Level() < sc.Level || !ok1 && sc.Level != 0 {
			t.Fatalf("%s: ok %v at level %d, key level %d", name, ok1, sc.Level, h.Level())
		}
		reach := int64(0)
		for _, m := range ss {
			reach += int64(m.top() + 1)
		}
		if sc.Blocks > reach {
			t.Fatalf("%s: read %d member level blocks of %d", name, sc.Blocks, reach)
		}
		sc.Blocks = 0
	}

	other := NewL0Family(0x5b, universe, 4).NewSampler()
	other.Add(7, 1)
	for _, ss := range [][]*L0Sampler{{fam.NewSampler(), other}, {other, fam.NewSampler()}} {
		_, _, _, err := SampleSum(ss, &sc)
		if _, _, _, _, want := sampleSumRef(ss); !errors.Is(err, errIncompatible) || !errors.Is(want, errIncompatible) {
			t.Errorf("mixed families: SampleSum %v, merge %v; want errIncompatible", err, want)
		}
	}
	if _, _, ok, err := SampleSum(nil, &sc); ok || err != nil {
		t.Errorf("no members: ok %v, err %v", ok, err)
	}
}

// TestL0RefusesZeroLevel: a present level whose cells are all zero is a
// block no encoder emits (MarshalBinary suppresses it), so decoding one
// would not round-trip: the decoder refuses it as corrupt, whether it
// sits just above the top (the same content) or replaces a level below
// it, and leaves the receiver as it was.
func TestL0RefusesZeroLevel(t *testing.T) {
	const universe = 1 << 20
	fam := NewL0Family(0x91, universe, 4)
	src := newL0Pair(fam.NewSampler())
	keys, deltas := batchWorkload(4, 60, universe)
	src.add(t, "AddBatch", keys, deltas)
	good, _ := src.flat.MarshalBinary()
	top := src.flat.top()
	for _, j := range []int{top + 1, top / 2} {
		bad := zeroLevelBlob(fam, good, j)
		var s L0Sampler
		if err := s.UnmarshalBinary(bad); !errors.Is(err, errCorrupt) {
			t.Errorf("all-zero level %d (top %d): %v, want errCorrupt", j, top, err)
		}
		dst := fam.NewSampler()
		if err := dst.UnmarshalBinary(good); err != nil {
			t.Fatal(err)
		}
		if err := dst.UnmarshalBinary(bad); !errors.Is(err, errCorrupt) {
			t.Errorf("all-zero level %d: %v, want errCorrupt", j, err)
		}
		if again, _ := dst.MarshalBinary(); string(again) != string(good) {
			t.Errorf("all-zero level %d: the refused blob changed the receiver", j)
		}
	}
}

// zeroLevelBlob is the sampler encoding enc with level j present and
// all-zero: the family's header for the level over zero cells.
func zeroLevelBlob(fam *L0Family, enc []byte, j int) []byte {
	zero := &wire.Writer{}
	for _, v := range fam.levels[j].header() {
		zero.U64(v)
	}
	zero.Raw(make([]byte, sketchBCellBytes*fam.cells))
	r, w := wire.NewReader(enc, errCorrupt), &wire.Writer{}
	w.U64(r.U64()) // tag
	w.U64(r.U64()) // seed
	w.U64(r.U64()) // universe
	w.Uvarint(r.Uvarint())
	levels := r.Uvarint()
	w.Uvarint(levels)
	for l := 0; l < int(levels); l++ {
		b := r.SketchBlock()
		if l == j {
			b = zero.Bytes()
		}
		w.Uvarint(uint64(len(b)))
		w.Raw(b)
	}
	return w.Bytes()
}

// negate returns the deltas of the updates that cancel d.
func negate(d []int64) []int64 {
	out := make([]int64, len(d))
	for i, x := range d {
		out[i] = -x
	}
	return out
}
