package sketch

import (
	"bytes"
	"errors"
	"fmt"

	"dynstream/internal/field"
	"dynstream/internal/wire"
)

// Binary serialization for the linear sketches. The encoding carries
// the construction parameters (seed + geometry) followed by the raw
// linear state; hash functions are reconstructed deterministically
// from the seed on decode. This is what makes the distributed protocol
// of the paper's introduction concrete: servers exchange sketch bytes,
// and a sketch decoded from bytes merges with any sketch built from
// the same seed.

var errCorrupt = errors.New("sketch: corrupt serialized data")

// sketchBHeaderBytes and sketchBCellBytes size a SketchB encoding: five
// 64-bit header words, then three per cell.
const (
	sketchBHeaderBytes = 40
	sketchBCellBytes   = 24
)

// header returns the SketchB encoding's header words for this shape.
func (sh *sketchBShape) header() [sketchBHeaderBytes / 8]uint64 {
	return [...]uint64{wire.TagSketchB, sh.seed, uint64(sh.capacity), uint64(sh.rows), uint64(sh.cols)}
}

// MarshalBinary encodes the sketch: parameters plus linear state. The
// wire format is cell-interleaved (count, keySum, fing per cell),
// independent of the in-memory structure-of-arrays layout.
func (s *SketchB) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(make([]byte, 0, sketchBHeaderBytes+sketchBCellBytes*len(s.counts)))
	for _, v := range s.shape.header() {
		w.U64(v)
	}
	for i := range s.counts {
		w.U64(uint64(s.counts[i]))
		w.U64(s.keySums[i])
		w.U64(s.fings[i])
	}
	return w.Bytes(), nil
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
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagSketchB {
		return fmt.Errorf("sketch: not a SketchB encoding: %w", errCorrupt)
	}
	seed, capacity, rows, cols := r.U64(), r.U64(), r.U64(), r.U64()
	if r.Err() != nil || capacity == 0 || capacity > 1<<32 || rows == 0 || cols == 0 || rows > 16 || cols > 1<<30 ||
		uint64(r.Len()) != rows*cols*sketchBCellBytes {
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
	for i := range rebuilt.counts { // length checked above
		rebuilt.counts[i], rebuilt.keySums[i], rebuilt.fings[i] = int64(r.U64()), r.U64(), r.U64()
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
// varint level lengths, each level a SketchB encoding, with a zero
// (absent or canceled-to-zero) level encoded as a single 0 byte.
// Geometric sampling leaves most levels untouched, so this shrinks
// AGM-family states by orders of magnitude on the wire. The encoding is
// content-canonical: states with equal linear content (regardless of
// which zero levels happen to be materialized) encode identically.
func (s *L0Sampler) MarshalBinary() ([]byte, error) {
	w := &wire.Writer{}
	w.U64(wire.TagL0Sampler)
	w.U64(s.fam.seed)
	w.U64(s.fam.universe)
	w.Uvarint(uint64(s.fam.perLevel))
	w.Uvarint(uint64(len(s.fam.levels)))
	top := s.top()
	for j, sh := range s.fam.levels {
		if j > top || field.AllZero(s.level(j)) {
			w.Uvarint(0) // zero-run suppression
			continue
		}
		w.Uvarint(uint64(sketchBHeaderBytes + sketchBCellBytes*s.fam.cells))
		for _, v := range sh.header() {
			w.U64(v)
		}
		counts, keySums, fings := s.lanes(j)
		for i := range counts {
			w.U64(counts[i])
			w.U64(keySums[i])
			w.U64(fings[i])
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a sampler encoded with MarshalBinary into the
// receiver's own lanes: a grid sampler's arena slot is filled in place.
// If the receiver already belongs to a family with matching parameters
// — as when agm.Sketch.UnmarshalBinary refills the samplers its
// constructor allocated — that family (and its level shapes, hash
// functions, and power tables) is reused rather than re-derived per
// sampler.
//
// Every level must be empty or exactly the SketchB encoding of the
// family's shape for it with a non-zero cell (MarshalBinary suppresses
// an all-zero level, so a present one would not re-encode to the same
// bytes), and a blob may not carry a level above a suppressed one: that
// would be a non-zero vector whose subsample one level denser sketches
// to all-zero cells, which no stream produces. The rules are checked
// over the whole blob before the receiver is touched, keep the top
// invariant, and bound what decoding allocates to the lanes the blob
// actually carries. The perLevel field is bounded by
// MaxL0PerLevel (2^13, so that a cell index fits 16 bits): a larger
// value is rejected as corrupt.
func (s *L0Sampler) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagL0Sampler {
		return fmt.Errorf("sketch: not an L0Sampler encoding: %w", errCorrupt)
	}
	seed, universe, perLevel, nLevels := r.U64(), r.U64(), r.Uvarint(), r.Uvarint()
	if r.Err() != nil || perLevel > MaxL0PerLevel {
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
		enc := r.SketchBlock()
		if enc == nil {
			continue
		}
		if len(enc) != sketchBHeaderBytes+sketchBCellBytes*fam.cells || top != j-1 {
			return errCorrupt
		}
		h := wire.NewReader(enc, errCorrupt)
		for _, want := range sh.header() {
			if h.U64() != want {
				return errCorrupt
			}
		}
		if cells := enc[sketchBHeaderBytes:]; bytes.Count(cells, []byte{0}) == len(cells) {
			return errCorrupt // an all-zero level
		}
		top = j
	}
	if err := r.Done(); err != nil {
		return err
	}
	s.fam = fam
	s.l0, s.tail = s.l0[:0], s.tail[:0]
	if top >= 0 || cap(s.l0) > 0 { // a grid slot stays materialized
		s.reach(max(top, 0))
	}
	for j := 0; j <= top; j++ {
		cells := wire.NewReader(body.SketchBlock()[sketchBHeaderBytes:], errCorrupt)
		counts, keySums, fings := s.lanes(j)
		for i := range counts {
			counts[i], keySums[i], fings[i] = cells.U64(), cells.U64(), cells.U64()
		}
	}
	return nil
}

// keyedBucketBytes is the wire size of one bucket: five 64-bit words.
const keyedBucketBytes = 40

// MarshalBinary encodes the keyed edge table: parameters plus the raw
// bucket accumulators of all rows·cells provisioned buckets. Hash
// functions and power tables are re-derived from the seed on decode.
// The wire format is bucket-interleaved (count, keySum, keyFing,
// edgeSum, edgeFing per bucket); a bucket outside the list, and every
// bucket of an untouched table, encodes as zeros.
func (t *KeyedEdgeSketch) MarshalBinary() ([]byte, error) {
	size := 5*8 + t.rows*t.cells*keyedBucketBytes
	w := wire.NewWriter(make([]byte, 0, size))
	for _, v := range []uint64{wire.TagKeyed, t.seed, uint64(t.n), uint64(t.rows), uint64(t.cells)} {
		w.U64(v)
	}
	var zero [keyedBucketBytes]byte
	next := 0
	for _, b := range t.buckets {
		for ; next < b.idx; next++ {
			w.Raw(zero[:])
		}
		w.U64(uint64(b.agg.edgeCount))
		w.U64(b.agg.keySum)
		w.U64(b.agg.keyFing)
		w.U64(b.agg.edgeSum)
		w.U64(b.agg.edgeFing)
		next++
	}
	return w.Bytes()[:size], nil // the buckets past the last entry are the zeros make left there
}

// UnmarshalBinary decodes a table encoded with MarshalBinary. The
// encoding is fixed-width, so the header's geometry is checked against
// the remaining length before anything is allocated: a short blob
// cannot request more memory than it carries. Only non-zero buckets
// join the list, which is counted before it is allocated.
//
// A receiver laid out by NewKeyedEdgeSketch — the slot a state decodes
// a table block into — accepts only an encoding of its own seed, n and
// geometry: a table with foreign hashes would decode and later refuse
// to merge. The zero value accepts any.
func (t *KeyedEdgeSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagKeyed {
		return fmt.Errorf("sketch: not a KeyedEdgeSketch encoding: %w", errCorrupt)
	}
	seed, n, rows, cells := r.U64(), r.U64(), r.U64(), r.U64()
	if r.Err() != nil || n == 0 || n > 1<<32 || rows == 0 || rows > 16 || cells == 0 || cells > 1<<30 ||
		uint64(r.Len()) != rows*cells*keyedBucketBytes {
		return errCorrupt
	}
	if t.rows != 0 && (seed != t.seed || n != uint64(t.n) || rows != uint64(t.rows) || cells != uint64(t.cells)) {
		return fmt.Errorf("sketch: keyed table block of seed %d, n %d, %dx%d decoded into a slot of seed %d, n %d, %dx%d: %w",
			seed, n, rows, cells, t.seed, t.n, t.rows, t.cells, errCorrupt)
	}
	body := r.Bytes(uint64(r.Len()))
	read := func(visit func(idx int, agg keyedAgg)) {
		br := wire.NewReader(body, errCorrupt)
		for idx := 0; br.Len() > 0; idx++ { // length checked above
			agg := keyedAgg{int64(br.U64()), br.U64(), br.U64(), br.U64(), br.U64()}
			if !agg.isZero() {
				visit(idx, agg)
			}
		}
	}
	nonZero := 0
	read(func(int, keyedAgg) { nonZero++ })
	rebuilt := newKeyedEdgeSketchGeom(seed, int(n), int(rows), int(cells))
	rebuilt.materialize()
	rebuilt.buckets = make([]keyedBucket, 0, nonZero)
	read(func(idx int, agg keyedAgg) { rebuilt.buckets = append(rebuilt.buckets, keyedBucket{idx, agg}) })
	rebuilt.gen = t.gen + 1 // whole-state replacement keeps gen monotonic
	*t = *rebuilt
	return nil
}

// MarshalBinary encodes the F0 estimator: parameters plus the field
// accumulators of every level.
func (f *F0) MarshalBinary() ([]byte, error) {
	w := &wire.Writer{}
	for _, v := range []uint64{wire.TagF0, f.seed, uint64(f.levels), uint64(f.buckets)} {
		w.U64(v)
	}
	for j := range f.acc {
		for _, v := range f.acc[j] {
			w.U64(v)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes an estimator encoded with MarshalBinary.
func (f *F0) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, errCorrupt)
	if r.U64() != wire.TagF0 {
		return fmt.Errorf("sketch: not an F0 encoding: %w", errCorrupt)
	}
	seed, levels, buckets := r.U64(), r.U64(), r.U64()
	if r.Err() != nil || levels == 0 || levels > 256 {
		return errCorrupt
	}
	rebuilt := newF0Geom(seed, int(levels))
	if uint64(rebuilt.buckets) != buckets {
		return errCorrupt
	}
	for j := range rebuilt.acc {
		for b := range rebuilt.acc[j] {
			rebuilt.acc[j][b] = r.U64()
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*f = *rebuilt
	return nil
}
