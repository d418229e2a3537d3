package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dynstream/internal/field"
)

// Binary serialization for the linear sketches. The encoding carries
// the construction parameters (seed + geometry) followed by the raw
// linear state; hash functions are reconstructed deterministically
// from the seed on decode. This is what makes the distributed protocol
// of the paper's introduction concrete: servers exchange sketch bytes,
// and a sketch decoded from bytes merges with any sketch built from
// the same seed.

// The magic constants identify the structure kind and version.
const (
	tagSketchB   uint64 = 0xd15c_0001
	tagL0Sampler uint64 = 0xd15c_0002 // v1: every level dense, u64 lengths
	tagKeyed     uint64 = 0xd15c_0004
	tagF0        uint64 = 0xd15c_0005
	// tagL0SamplerV2 is the compressed sampler encoding: varint level
	// lengths with zero-run suppression — an absent (or canceled-to-
	// zero) level encodes as a single 0 byte instead of a dense zero
	// sketch. v1 blobs still decode; encoding always emits v2.
	tagL0SamplerV2 uint64 = 0xd15c_0102
)

var errCorrupt = errors.New("sketch: corrupt serialized data")

type wbuf struct{ b []byte }

func (w *wbuf) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	w.b = append(w.b, tmp[:]...)
}

func (w *wbuf) i64(v int64) { w.u64(uint64(v)) }

func (w *wbuf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

type rbuf struct{ b []byte }

func (r *rbuf) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errCorrupt
	}
	v := binary.LittleEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v, nil
}

func (r *rbuf) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *rbuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errCorrupt
	}
	r.b = r.b[n:]
	return v, nil
}

// sketchBHeaderBytes and sketchBCellBytes size a SketchB encoding: five
// 64-bit header words, then three per cell.
const (
	sketchBHeaderBytes = 40
	sketchBCellBytes   = 24
)

// header returns the SketchB encoding's header words for this shape.
func (sh *sketchBShape) header() [sketchBHeaderBytes / 8]uint64 {
	return [...]uint64{tagSketchB, sh.seed, uint64(sh.capacity), uint64(sh.rows), uint64(sh.cols)}
}

// MarshalBinary encodes the sketch: parameters plus linear state. The
// wire format is cell-interleaved (count, keySum, fing per cell),
// independent of the in-memory structure-of-arrays layout.
func (s *SketchB) MarshalBinary() ([]byte, error) {
	w := &wbuf{}
	for _, v := range s.shape.header() {
		w.u64(v)
	}
	for i := range s.counts {
		w.i64(s.counts[i])
		w.u64(s.keySums[i])
		w.u64(s.fings[i])
	}
	return w.b, nil
}

// UnmarshalBinary decodes a sketch previously encoded with
// MarshalBinary, reconstructing hash functions from the stored seed.
// If the receiver already has a shape with matching parameters (e.g. a
// family-backed sketch being refilled over the wire), it is reused
// instead of re-deriving hashes and power tables. The encoding is
// fixed-width, so the header's geometry is checked against the
// remaining length before anything is allocated: a short blob cannot
// request more memory than it carries.
func (s *SketchB) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	tag, err := r.u64()
	if err != nil || tag != tagSketchB {
		return fmt.Errorf("sketch: not a SketchB encoding: %w", errCorrupt)
	}
	var seed, capacity, rows, cols uint64
	for _, dst := range []*uint64{&seed, &capacity, &rows, &cols} {
		if *dst, err = r.u64(); err != nil {
			return err
		}
	}
	if capacity == 0 || capacity > 1<<32 || rows == 0 || cols == 0 || rows > 16 || cols > 1<<30 ||
		uint64(len(r.b)) != rows*cols*sketchBCellBytes {
		return errCorrupt
	}
	shape := s.shape
	if shape == nil || shape.seed != seed || shape.capacity != int(capacity) ||
		shape.rows != int(rows) || shape.cols != int(cols) {
		// Derived exactly as the constructor would, with the explicit
		// geometry (which may differ from defaults) adopted afterwards.
		shape = newSketchBShape(seed, int(capacity), SketchConfig{Rows: int(rows)})
		shape.cols = int(cols)
	}
	rebuilt := shape.instance()
	for i := range rebuilt.counts {
		rebuilt.counts[i], _ = r.i64() // length checked above
		rebuilt.keySums[i], _ = r.u64()
		rebuilt.fings[i], _ = r.u64()
	}
	rebuilt.gen = s.gen + 1 // whole-state replacement keeps gen monotonic
	*s = *rebuilt
	return nil
}

// Decode decodes a sketch of this family — the non-zero blocks of an
// encoding that suppresses zero sketches. An encoding of another shape,
// or of the zero sketch, is corrupt.
func (f *SketchBFamily) Decode(enc []byte) (*SketchB, error) {
	s := &SketchB{shape: f.sh}
	if err := s.UnmarshalBinary(enc); err != nil {
		return nil, err
	}
	if s.shape != f.sh || s.IsZero() {
		return nil, errCorrupt
	}
	return s, nil
}

// MarshalBinary encodes the sampler: parameters plus per-level states,
// in the v2 compressed layout — varint level lengths, each level a
// SketchB encoding, with a zero (absent or canceled-to-zero) level
// encoded as a single 0 byte. Geometric sampling leaves most levels
// untouched, so this shrinks AGM-family states by orders of magnitude
// on the wire. The encoding is content-canonical: states with equal
// linear content (regardless of which zero levels happen to be
// materialized) encode identically.
func (s *L0Sampler) MarshalBinary() ([]byte, error) {
	w := &wbuf{}
	w.u64(tagL0SamplerV2)
	w.u64(s.fam.seed)
	w.u64(s.fam.universe)
	w.uvarint(uint64(s.fam.perLevel))
	w.uvarint(uint64(len(s.fam.levels)))
	top := s.top()
	for j, sh := range s.fam.levels {
		if j > top || field.AllZero(s.level(j)) {
			w.uvarint(0) // zero-run suppression
			continue
		}
		w.uvarint(uint64(sketchBHeaderBytes + sketchBCellBytes*s.fam.cells))
		for _, v := range sh.header() {
			w.u64(v)
		}
		counts, keySums, fings := s.lanes(j)
		for i := range counts {
			w.u64(counts[i])
			w.u64(keySums[i])
			w.u64(fings[i])
		}
	}
	return w.b, nil
}

// UnmarshalBinary decodes a sampler encoded with MarshalBinary —
// either the current v2 layout or the dense v1 layout older blobs
// carry — into the receiver's own lanes: a grid sampler's arena slot is
// filled in place. If the receiver already belongs to a family with
// matching parameters — as when agm.Sketch.UnmarshalBinary refills the
// samplers its constructor allocated — that family (and its level
// shapes, hash functions, and power tables) is reused rather than
// re-derived per sampler.
//
// Every level must be empty (v2) or exactly the SketchB encoding of the
// family's shape for it, and a v2 blob may not carry a level above a
// suppressed one: that would be a non-zero vector whose subsample one
// level denser sketches to all-zero cells, which no stream produces.
// Together the two rules are checked over the whole blob before the
// receiver is touched, and bound what decoding allocates to the lanes
// the blob actually carries. The perLevel field is bounded by
// MaxL0PerLevel (2^13, so that a cell index fits 16 bits): a larger
// value is rejected as corrupt in both layouts.
func (s *L0Sampler) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	tag, err := r.u64()
	if err != nil || (tag != tagL0Sampler && tag != tagL0SamplerV2) {
		return fmt.Errorf("sketch: not an L0Sampler encoding: %w", errCorrupt)
	}
	v2 := tag == tagL0SamplerV2
	length := (*rbuf).u64
	if v2 {
		length = (*rbuf).uvarint
	}
	seed, err := r.u64()
	if err != nil {
		return err
	}
	universe, err := r.u64()
	if err != nil {
		return err
	}
	perLevel, err := length(r)
	if err != nil {
		return err
	}
	nLevels, err := length(r)
	if err != nil {
		return err
	}
	if perLevel > MaxL0PerLevel {
		return errCorrupt
	}
	fam := s.fam
	if fam == nil || fam.seed != seed || fam.universe != universe ||
		uint64(fam.perLevel) != perLevel {
		fam = NewL0Family(seed, universe, int(perLevel))
	}
	if uint64(len(fam.levels)) != nLevels {
		return errCorrupt
	}
	// First walk: validate every level and find the highest one present.
	// Second walk: fill the lanes.
	body, top := *r, -1
	for j, sh := range fam.levels {
		ln, err := length(r)
		if err != nil {
			return err
		}
		if ln == 0 && v2 {
			continue
		}
		if ln != uint64(sketchBHeaderBytes+sketchBCellBytes*fam.cells) || uint64(len(r.b)) < ln || top != j-1 {
			return errCorrupt
		}
		for _, want := range sh.header() {
			if got, _ := r.u64(); got != want {
				return errCorrupt
			}
		}
		r.b = r.b[sketchBCellBytes*fam.cells:]
		top = j
	}
	if len(r.b) != 0 {
		return errCorrupt
	}
	s.fam = fam
	s.gen++ // whole-state replacement keeps gen monotonic
	s.l0, s.tail = s.l0[:0], s.tail[:0]
	if top >= 0 || cap(s.l0) > 0 { // a grid slot stays materialized
		s.reach(max(top, 0))
	}
	r = &body
	for j := 0; j <= top; j++ {
		_, _ = length(r)
		r.b = r.b[sketchBHeaderBytes:]
		counts, keySums, fings := s.lanes(j)
		for i := range counts {
			counts[i], _ = r.u64()
			keySums[i], _ = r.u64()
			fings[i], _ = r.u64()
		}
	}
	return nil
}

// keyedBucketBytes is the wire size of one bucket: five 64-bit words.
const keyedBucketBytes = 40

// MarshalBinary encodes the keyed edge table: parameters plus the raw
// bucket accumulators. Hash functions and power tables are re-derived
// from the seed on decode. The wire format is bucket-interleaved
// (count, keySum, keyFing, edgeSum, edgeFing per bucket), independent
// of the in-memory structure-of-arrays layout; an unmaterialized table
// encodes as the zero buckets it stands for.
func (t *KeyedEdgeSketch) MarshalBinary() ([]byte, error) {
	size := 5*8 + t.rows*t.cells*keyedBucketBytes
	w := &wbuf{b: make([]byte, 0, size)}
	w.u64(tagKeyed)
	w.u64(t.seed)
	w.u64(uint64(t.n))
	w.u64(uint64(t.rows))
	w.u64(uint64(t.cells))
	if t.lanes == nil {
		return w.b[:size], nil // the buckets are the zeros make left there
	}
	for i := range t.counts {
		w.u64(t.counts[i])
		w.u64(t.keySums[i])
		w.u64(t.keyFings[i])
		w.u64(t.edgeSums[i])
		w.u64(t.edgeFings[i])
	}
	return w.b, nil
}

// UnmarshalBinary decodes a table encoded with MarshalBinary. The
// encoding is fixed-width, so the header's geometry is checked against
// the remaining length before anything is allocated: a short blob
// cannot request more memory than it carries.
func (t *KeyedEdgeSketch) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	tag, err := r.u64()
	if err != nil || tag != tagKeyed {
		return fmt.Errorf("sketch: not a KeyedEdgeSketch encoding: %w", errCorrupt)
	}
	var seed, n, rows, cells uint64
	for _, dst := range []*uint64{&seed, &n, &rows, &cells} {
		if *dst, err = r.u64(); err != nil {
			return err
		}
	}
	if n == 0 || n > 1<<32 || rows == 0 || rows > 16 || cells == 0 || cells > 1<<30 ||
		uint64(len(r.b)) != rows*cells*keyedBucketBytes {
		return errCorrupt
	}
	rebuilt := newKeyedEdgeSketchGeom(seed, int(n), int(rows), int(cells))
	rebuilt.materialize()
	for i := range rebuilt.counts {
		b := r.b[i*keyedBucketBytes : (i+1)*keyedBucketBytes]
		rebuilt.counts[i] = binary.LittleEndian.Uint64(b)
		rebuilt.keySums[i] = binary.LittleEndian.Uint64(b[8:])
		rebuilt.keyFings[i] = binary.LittleEndian.Uint64(b[16:])
		rebuilt.edgeSums[i] = binary.LittleEndian.Uint64(b[24:])
		rebuilt.edgeFings[i] = binary.LittleEndian.Uint64(b[32:])
	}
	rebuilt.gen = t.gen + 1 // whole-state replacement keeps gen monotonic
	*t = *rebuilt
	return nil
}

// MarshalBinary encodes the F0 estimator: parameters plus the field
// accumulators of every level.
func (f *F0) MarshalBinary() ([]byte, error) {
	w := &wbuf{}
	w.u64(tagF0)
	w.u64(f.seed)
	w.u64(uint64(f.levels))
	w.u64(uint64(f.buckets))
	for j := range f.acc {
		for _, v := range f.acc[j] {
			w.u64(v)
		}
	}
	return w.b, nil
}

// UnmarshalBinary decodes an estimator encoded with MarshalBinary.
func (f *F0) UnmarshalBinary(data []byte) error {
	r := &rbuf{b: data}
	tag, err := r.u64()
	if err != nil || tag != tagF0 {
		return fmt.Errorf("sketch: not an F0 encoding: %w", errCorrupt)
	}
	seed, err := r.u64()
	if err != nil {
		return err
	}
	levels, err := r.u64()
	if err != nil {
		return err
	}
	buckets, err := r.u64()
	if err != nil {
		return err
	}
	if levels == 0 || levels > 256 {
		return errCorrupt
	}
	rebuilt := newF0Geom(seed, int(levels))
	if uint64(rebuilt.buckets) != buckets {
		return errCorrupt
	}
	for j := range rebuilt.acc {
		for b := range rebuilt.acc[j] {
			if rebuilt.acc[j][b], err = r.u64(); err != nil {
				return err
			}
		}
	}
	if len(r.b) != 0 {
		return errCorrupt
	}
	*f = *rebuilt
	return nil
}
