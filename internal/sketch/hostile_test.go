package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"

	"dynstream/internal/wire"
)

// Bytes that cross a trust boundary: the decoders must answer any
// input with a typed error or a usable state, in memory bounded by the
// input and time bounded by the state.

func sketchBHeader(seed, capacity, rows, cols uint64) []byte {
	var b []byte
	for _, v := range []uint64{wire.TagSketchB, seed, capacity, rows, cols} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func TestSketchBUnmarshalBoundedByInput(t *testing.T) {
	// 40 bytes that used to allocate 16 × 2^30 cells × 24 B before
	// reading any of them.
	var s SketchB
	if err := s.UnmarshalBinary(sketchBHeader(1, 4, 16, 1<<30)); !errors.Is(err, errCorrupt) {
		t.Fatalf("oversized geometry: %v, want errCorrupt", err)
	}
	good, _ := NewSketchB(3, 4).MarshalBinary()
	if err := s.UnmarshalBinary(append(good, 0)); !errors.Is(err, errCorrupt) {
		t.Fatalf("trailing byte: %v, want errCorrupt", err)
	}
}

// l0Header is an L0Sampler encoding with every level suppressed — the
// cheapest blob that gets past the header — or, with v2 false, the same
// header in the retired dense v1 layout.
func l0Header(v2 bool, seed, universe, perLevel, nLevels uint64) []byte {
	tag, num := l0SamplerV1Tag, binary.LittleEndian.AppendUint64
	if v2 {
		tag, num = wire.TagL0Sampler, binary.AppendUvarint
	}
	b := binary.LittleEndian.AppendUint64(nil, tag)
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.LittleEndian.AppendUint64(b, universe)
	b = num(num(b, perLevel), nLevels)
	for i := uint64(0); i < nLevels; i++ {
		b = num(b, 0)
	}
	return b
}

// TestL0PerLevelBound: a cell index is 16 bits, so perLevel is bounded
// by MaxL0PerLevel — on the wire with a typed error (no family is built
// for the oversized value, so nothing panics; the v1 layout is rejected
// whatever its header), in the
// constructor with a panic. The bound itself is accepted and its levels
// stay addressable.
func TestL0PerLevelBound(t *testing.T) {
	atBound := NewL0Family(1, 2, MaxL0PerLevel)
	if atBound.cells > 1<<16 {
		t.Fatalf("perLevel %d: %d cells per level do not fit a uint16 index", MaxL0PerLevel, atBound.cells)
	}
	levels := uint64(len(atBound.levels))
	var s L0Sampler
	if err := s.UnmarshalBinary(l0Header(true, 1, 2, MaxL0PerLevel, levels)); err != nil {
		t.Fatalf("perLevel at the bound rejected: %v", err)
	}
	for _, v2 := range []bool{true, false} {
		var s L0Sampler
		err := s.UnmarshalBinary(l0Header(v2, 1, 2, MaxL0PerLevel+1, levels))
		if !errors.Is(err, errCorrupt) {
			t.Errorf("v2=%v perLevel %d: %v, want errCorrupt", v2, MaxL0PerLevel+1, err)
		}
		if s.fam != nil {
			t.Errorf("v2=%v: a rejected blob touched the receiver", v2)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewL0Family accepted perLevel above MaxL0PerLevel")
		}
	}()
	NewL0Family(1, 2, MaxL0PerLevel+1)
}

// wipeRows zeroes every cell from index from on, leaving a state no
// stream produces: a key present in one hash row and absent from the
// others. Peeling it extracts the key, which drives the other rows'
// cells to minus the key, which extracts again and refills the first.
func wipeRows[T int64 | uint64](from int, lanes ...[]T) {
	for _, lane := range lanes {
		for i := from; i < len(lane); i++ {
			lane[i] = 0
		}
	}
}

func TestDecodeTerminatesOnInconsistentState(t *testing.T) {
	sb := NewSketchB(9, 4)
	sb.Add(1234, 1)
	wipeRows(sb.shape.cols, sb.counts)
	wipeRows(sb.shape.cols, sb.keySums, sb.fings)
	if items, ok := sb.Decode(); ok {
		t.Errorf("SketchB decoded an inconsistent state to %v", items)
	}

	l0 := NewL0Sampler(9, 1<<16, 4)
	l0.Add(77, 1)
	counts, keySums, fings := l0.lanes(0)
	cols := l0.fam.levels[0].cols
	wipeRows(cols, counts, keySums, fings)
	l0.Sample() // must return

	kt := NewKeyedEdgeSketch(9, 50, 4)
	kt.Add(3, 7, 1)
	kt.buckets = slices.DeleteFunc(kt.buckets, func(b keyedBucket) bool { return b.idx >= kt.cells })
	if keys := kt.Keys(); len(keys) != 0 {
		t.Errorf("keyed table recovered %v from an inconsistent state", keys)
	}
}

// decodeWithinBudget runs UnmarshalBinary and fails the test if it
// allocated more than 64 KB (derived hash functions and shapes, runtime
// slack) plus four times the input. The counter is process-wide and a
// fuzz worker's own goroutines allocate too, so a reading over budget
// is taken again: what the decoder allocates repeats, the noise does
// not.
func decodeWithinBudget(t *testing.T, data []byte, decode func([]byte) error) error {
	t.Helper()
	budget := uint64(64<<10 + 4*len(data))
	var err error
	var got uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = decode(data)
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got <= budget {
			break
		}
	}
	if got > budget {
		t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), got, budget)
	}
	if err != nil && !errors.Is(err, errCorrupt) {
		t.Fatalf("untyped error: %v", err)
	}
	return err
}

// FuzzSketchBUnmarshal: arbitrary bytes never panic the decoder or make
// it allocate beyond the budget; whatever decodes re-encodes to the
// same bytes, and Decode on it returns.
func FuzzSketchBUnmarshal(f *testing.F) {
	sb := NewSketchB(5, 4)
	sb.Add(11, 3)
	enc, _ := sb.MarshalBinary()
	f.Add(enc)
	f.Add(enc[:len(enc)-8])
	f.Add(sketchBHeader(1, 4, 16, 1<<30))
	f.Add(sketchBHeader(1, 0, 3, 6))
	wipeRows(sb.shape.cols, sb.counts)
	wipeRows(sb.shape.cols, sb.keySums, sb.fings)
	cyc, _ := sb.MarshalBinary()
	f.Add(cyc)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s SketchB
		if decodeWithinBudget(t, data, s.UnmarshalBinary) != nil {
			return
		}
		if back, err := s.MarshalBinary(); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted encoding does not round-trip (err %v)", err)
		}
		s.Decode()
	})
}

// FuzzL0Unmarshal: the same for the sampler; a v1 blob and a present
// all-zero level are seeds that must be rejected, so whatever decodes
// re-encodes to the same bytes.
func FuzzL0Unmarshal(f *testing.F) {
	fam := NewL0Family(5, 1<<12, 4)
	p := newL0Pair(fam.NewSampler())
	keys, deltas := batchWorkload(8, 40, 1<<12)
	p.add(f, "AddBatch", keys, deltas)
	v2 := p.ref.marshal(false)
	f.Add(v2)
	f.Add(zeroLevelBlob(fam, v2, p.flat.top()+1))
	f.Add(p.ref.marshal(true))
	f.Add(v2[:len(v2)-8])
	f.Add(newRefSampler(fam).marshal(false))
	// A header asking for 2^32 items per level with every level suppressed.
	huge := binary.LittleEndian.AppendUint64(nil, wire.TagL0Sampler)
	huge = binary.LittleEndian.AppendUint64(huge, 1)
	huge = binary.LittleEndian.AppendUint64(huge, 2)
	huge = binary.AppendUvarint(huge, 1<<32)
	huge = append(binary.AppendUvarint(huge, 3), 0, 0, 0)
	f.Add(huge)
	f.Add(l0Header(true, 1, 2, MaxL0PerLevel+1, 3))
	p.ref.levels[1] = nil
	f.Add(p.ref.marshal(false)) // a level above a suppressed one
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s L0Sampler
		if decodeWithinBudget(t, data, s.UnmarshalBinary) != nil {
			return
		}
		if back, err := s.MarshalBinary(); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted encoding does not round-trip (err %v)", err)
		}
		if err := topInvariant(&s); err != nil {
			t.Fatal(err)
		}
		s.Sample()
	})
}
