package sketch

import (
	"fmt"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
)

// sketchBShape is the immutable-after-derivation, shareable part of a
// SketchB: seed, geometry, the row-hash bank, and the fingerprint base
// with its power table. Sketches built from the same randomness
// (e.g. the per-vertex sketches of one AGM round) share one shape, so
// constructing n sketches costs n slice allocations instead of
// n×(hashes + power table) objects.
type sketchBShape struct {
	seed     uint64
	capacity int
	rows     int
	cols     int
	bank     hashing.PolyBank // all row hashes, dot products over one key's powers
	fingBase uint64
	fingTab  *field.PowTable // lazy; access via tab()
}

// tab returns the fingerprint power table, building it on first use.
// Laziness keeps constructors of rarely-touched sketches (e.g. the
// additive spanner's per-vertex center sketches) from paying table
// setup up front: 16 Muls per window, and the full-width keys here need
// all 16 windows. Materialization follows the same confinement rule as
// cell mutation: a sketch (and the shape it owns or shares) belongs to
// one goroutine until its state is handed off.
func (sh *sketchBShape) tab() *field.PowTable {
	if sh.fingTab == nil {
		sh.fingTab = field.NewPowTable(sh.fingBase)
	}
	return sh.fingTab
}

// newSketchBShape derives the shape exactly as NewSketchBConfig always
// did, so sketches over a shared shape are bit-identical to sketches
// built standalone from the same seed. Row r hashes with the degree-5
// polynomial of seed Mix(seed, r+1). More than maxBankRows rows — which
// the wire decoder refuses as corrupt — is a programming error and
// panics.
func newSketchBShape(seed uint64, capacity int, cfg SketchConfig) *sketchBShape {
	capacity, rows, cols := sketchBGeometry(capacity, cfg)
	if rows > maxBankRows {
		panic("sketch: SketchB rows exceed maxBankRows")
	}
	var seeds [maxBankRows]uint64
	for r := 0; r < rows; r++ {
		seeds[r] = hashing.Mix(seed, uint64(r)+1)
	}
	sh := &sketchBShape{
		seed:     seed,
		capacity: capacity,
		rows:     rows,
		cols:     cols,
		bank:     hashing.SeededBank(6, seeds[:rows]...),
		fingBase: field.Reduce(hashing.Mix(seed, 0xf1f1)),
	}
	if sh.fingBase < 2 {
		sh.fingBase = 2
	}
	return sh
}

// sketchBGeometry is the cell layout a capacity gets: cfg.Rows rows of
// ColsPerItem·capacity columns, at least MinCols.
func sketchBGeometry(capacity int, cfg SketchConfig) (capa, rows, cols int) {
	cfg = cfg.withDefaults()
	capa = max(capacity, 1)
	return capa, cfg.Rows, max(int(cfg.ColsPerItem*float64(capa)), cfg.MinCols)
}

// SketchBWords is SpaceWords of a SketchB of the given capacity and
// redundancy, known without deriving its hashes — so callers that
// create sketches on first touch can account for the ones not yet
// created.
func SketchBWords(capacity int, cfg SketchConfig) int {
	_, rows, cols := sketchBGeometry(capacity, cfg)
	return (&sketchBShape{rows: rows, cols: cols}).spaceWords()
}

// maxBankRows bounds the rows of a SketchB or keyed table, and so the
// stack scratch used for banked row hashes; the wire format rejects
// rows > 16.
const maxBankRows = 16

func (sh *sketchBShape) cells() int { return sh.rows * sh.cols }

// spaceWords is the footprint of one sketch over the shape: 3 words per
// cell + seed/geometry.
func (sh *sketchBShape) spaceWords() int { return 3*sh.cells() + 4 }

// SketchB is the paper's SKETCH_B primitive (Theorem 8): a randomized
// linear projection of a signed integer vector x from which x can be
// recovered exactly whenever ||x||_0 <= B, with failure probability
// 1/poly(n). It is implemented as an invertible Bloom lookup table:
// rows × cols one-sparse cells, each key hashed to one cell per row,
// decoded by peeling pure cells. The structure is linear, so sketches
// can be merged (summing vectors) and subtracted — the operations
// Algorithms 1–3 rely on. A nil *SketchB reads as the zero sketch
// (IsZero, Gen, Decode), so callers that create sketches on first
// touch need not test for the ones not yet created.
//
// Cell state is stored structure-of-arrays (counts / keySums / fings as
// three flat slices) so that ingest and merge sweep contiguous memory,
// and so that families of sketches can slice their state out of one
// backing allocation.
type SketchB struct {
	shape   *sketchBShape
	counts  []int64
	keySums []uint64
	fings   []uint64
	gen     uint64
}

// Gen returns the sketch's generation counter: a monotonic count of
// state mutations (Add/AddBatch/Merge/Sub/SetTo and deserialization).
// Decode-side caches key reuse on it — equal generation sums over a
// fixed sketch set imply the states are unchanged, with no collision
// risk, because generations only grow.
func (s *SketchB) Gen() uint64 {
	if s == nil {
		return 0
	}
	return s.gen
}

// SketchConfig tunes the redundancy of sparse recovery. Zero values take
// defaults suitable for whp recovery at small polynomial scale.
type SketchConfig struct {
	// Rows is the number of hash rows (default 3).
	Rows int
	// ColsPerItem scales cells per row relative to capacity
	// (default 1.5). Total cells = Rows * max(MinCols, ColsPerItem*B).
	ColsPerItem float64
	// MinCols floors the row width (default 4).
	MinCols int
}

func (c SketchConfig) withDefaults() SketchConfig {
	if c.Rows == 0 {
		c.Rows = 3
	}
	if c.ColsPerItem == 0 {
		c.ColsPerItem = 1.5
	}
	if c.MinCols == 0 {
		c.MinCols = 4
	}
	return c
}

// NewSketchB creates a sparse-recovery sketch for signals with support
// size up to capacity, with default redundancy.
func NewSketchB(seed uint64, capacity int) *SketchB {
	return NewSketchBConfig(seed, capacity, SketchConfig{})
}

// NewSketchBConfig creates a sparse-recovery sketch with explicit
// redundancy parameters.
func NewSketchBConfig(seed uint64, capacity int, cfg SketchConfig) *SketchB {
	return newSketchBShape(seed, capacity, cfg).instance()
}

// SketchBFamily is the shared immutable part (seed, geometry, hashes,
// fingerprint table) of same-seeded SketchBs. Callers that build many
// sketches from one seed — e.g. the two-pass spanner's per-vertex
// first-pass sketches, which share their randomness per (level, E_j)
// pair — derive the family once and instantiate per vertex, instead of
// re-deriving hashes and tables n times.
type SketchBFamily struct {
	sh *sketchBShape
}

// NewSketchBFamily derives the shared part exactly as NewSketchBConfig
// would, so family instances are bit-identical to standalone sketches
// of the same seed.
func NewSketchBFamily(seed uint64, capacity int, cfg SketchConfig) *SketchBFamily {
	return &SketchBFamily{sh: newSketchBShape(seed, capacity, cfg)}
}

// New returns a zeroed sketch of the family.
func (f *SketchBFamily) New() *SketchB { return f.sh.instance() }

// instance returns a zeroed sketch over the shared shape.
func (sh *sketchBShape) instance() *SketchB {
	n := sh.cells()
	// One backing array for both field lanes: the spanner's first-touch
	// pass-1 sketches allocate thousands of these, and halving the
	// object count halves the GC scan load they add.
	pair := make([]uint64, 2*n)
	return &SketchB{
		shape:   sh,
		counts:  make([]int64, n),
		keySums: pair[:n:n],
		fings:   pair[n:],
	}
}

// Capacity returns the sparsity budget B the sketch was built for.
func (s *SketchB) Capacity() int { return s.shape.capacity }

// Seed returns the randomness seed; two sketches are mergeable iff their
// seeds (and geometry) match.
func (s *SketchB) Seed() uint64 { return s.shape.seed }

// Fkey returns the fingerprint power r^key for this sketch's base,
// computed through the precomputed window table. Callers that fan one
// update out to several same-seeded sketches compute it once and pass
// it to AddFkey.
func (s *SketchB) Fkey(key uint64) uint64 {
	return s.shape.tab().Pow(field.Reduce(key))
}

// Add folds a stream update x[key] += delta into the sketch.
func (s *SketchB) Add(key uint64, delta int64) {
	if delta == 0 {
		return
	}
	s.AddFkey(key, delta, s.Fkey(key))
}

// AddBatch folds a batch of updates; bit-identical to calling Add per
// element. keys and deltas must have equal length. Fingerprint powers
// for the whole batch are evaluated with one shared window traversal
// (field.FingerprintVec) before the per-update cell scatter.
func (s *SketchB) AddBatch(keys []uint64, deltas []int64) {
	if len(keys) == 0 {
		return
	}
	tab := s.shape.tab()
	exps := make([]uint64, len(keys))
	for i, key := range keys {
		exps[i] = field.Reduce(key)
	}
	fkeys := make([]uint64, len(keys))
	tab.FingerprintVec(fkeys, exps)
	for i, key := range keys {
		if deltas[i] == 0 {
			continue
		}
		s.AddFkey(key, deltas[i], fkeys[i])
	}
}

// Fkey2 returns the fingerprint powers of two keys through one shared
// window traversal (field.PowPair) — the two-endpoint form of Fkey
// used when one stream update routes into a pair of same-family
// sketches.
func (s *SketchB) Fkey2(ka, kb uint64) (uint64, uint64) {
	tab := s.shape.tab()
	return field.PowPair(tab, tab, field.Reduce(ka), field.Reduce(kb))
}

// AddFkey is Add with the fingerprint power precomputed (fkey must
// equal r^key for this sketch's base). All row hashes are evaluated
// over the key's shared powers by the shape's bank.
func (s *SketchB) AddFkey(key uint64, delta int64, fkey uint64) {
	if delta == 0 {
		return
	}
	s.gen++
	d := field.FromInt64(delta)
	ks := field.Mul(d, field.Reduce(key))
	fg := field.Mul(d, fkey)
	sh := s.shape
	var hbuf [maxBankRows]uint64
	var ibuf [maxBankRows]int32
	hs := hbuf[:sh.rows]
	sh.bank.HashPrefix(key, hs)
	cols := uint64(sh.cols)
	idx := ibuf[:sh.rows]
	for r := range hs {
		idx[r] = int32(r*sh.cols + int(hs[r]%cols))
	}
	field.ScatterAdd3(s.counts, s.keySums, s.fings, delta, ks, fg, idx)
}

func (s *SketchB) compatible(o *SketchB) error {
	if s.shape.seed != o.shape.seed || s.shape.rows != o.shape.rows || s.shape.cols != o.shape.cols {
		return fmt.Errorf("sketch: merging incompatible sketches (seed %d/%d, %dx%d vs %dx%d)",
			s.shape.seed, o.shape.seed, s.shape.rows, s.shape.cols, o.shape.rows, o.shape.cols)
	}
	return nil
}

// Merge adds another sketch built with the same seed and geometry; the
// result sketches the sum of the two underlying vectors. The three SoA
// lanes fold in one kernel pass (field.MergeCells).
func (s *SketchB) Merge(o *SketchB) error {
	if err := s.compatible(o); err != nil {
		return err
	}
	s.gen++
	field.MergeCells(s.counts, s.keySums, s.fings, o.counts, o.keySums, o.fings)
	return nil
}

// Sub subtracts another compatible sketch.
func (s *SketchB) Sub(o *SketchB) error {
	if err := s.compatible(o); err != nil {
		return err
	}
	s.gen++
	field.SubCells(s.counts, s.keySums, s.fings, o.counts, o.keySums, o.fings)
	return nil
}

// Clone returns a deep copy (the immutable shape is shared).
func (s *SketchB) Clone() *SketchB {
	c := s.shape.instance()
	copy(c.counts, s.counts)
	copy(c.keySums, s.keySums)
	copy(c.fings, s.fings)
	return c
}

// SetTo makes s an exact copy of o — o's shape, o's cell state —
// reusing s's cell slices when the geometry matches. It is the
// scratch-reuse primitive of the spanner's cluster decode: one scratch
// sketch is SetTo a center's first member sketch, merged, and decoded,
// center after center, without allocating a fresh Clone each time.
func (s *SketchB) SetTo(o *SketchB) {
	s.gen++
	s.shape = o.shape
	if len(s.counts) != len(o.counts) {
		s.counts = make([]int64, len(o.counts))
		s.keySums = make([]uint64, len(o.keySums))
		s.fings = make([]uint64, len(o.fings))
	}
	copy(s.counts, o.counts)
	copy(s.keySums, o.keySums)
	copy(s.fings, o.fings)
}

// IsZero reports whether the sketch is (whp) of the zero vector. Each
// SoA lane is scanned with an early-exit word loop — count lane first,
// since any touched cell has a nonzero count far more often than a
// canceled one — instead of per-cell struct loads.
func (s *SketchB) IsZero() bool {
	return s == nil || field.AllZeroI64(s.counts) && field.AllZero(s.keySums) && field.AllZero(s.fings)
}

// decodeCell attempts one-sparse recovery of cell i: Cell.DecodeTable
// over the flat layout, powered by the shape's table.
func (s *SketchB) decodeCell(i int) (key uint64, weight int64, fkey uint64, ok bool) {
	c := Cell{count: s.counts[i], keySum: s.keySums[i], fing: s.fings[i]}
	return c.DecodeTable(s.shape.tab())
}

// Decode recovers the sketched vector by peeling. It returns the map of
// nonzero coordinates and ok=true iff every cell was consumed, i.e. the
// recovery is (whp) exact. Decoding a zero vector returns an empty map
// and ok=true. Decode does not mutate the sketch.
func (s *SketchB) Decode() (map[uint64]int64, bool) {
	if s == nil {
		return nil, true
	}
	return s.Clone().peel()
}

// DecodeInPlace is Decode on the receiver's own cells, which it
// consumes: a scratch sketch that is refilled (SetTo) before its next
// use decodes without a second copy, allocating only the result map.
func (s *SketchB) DecodeInPlace() (map[uint64]int64, bool) {
	if s == nil {
		return nil, true
	}
	return s.peel()
}

// peel is Decode in place: it consumes the receiver's cells and
// collects peelEach's extractions into the net vector.
func (s *SketchB) peel() (map[uint64]int64, bool) {
	out := make(map[uint64]int64)
	ok := s.peelEach(func(key uint64, w int64) {
		out[key] += w
		if out[key] == 0 {
			delete(out, key)
		}
	})
	return out, ok
}

// peelEach consumes the receiver's cells, passing each extraction to
// emit. It repeatedly finds a pure cell, extracts its item and removes
// the item from all rows, until no progress. Peeling a sketch of any
// actual vector empties a cell with each extraction and never refills
// one, so it makes at most one extraction per cell; in a state no
// stream produces (a corrupt or hostile blob) an extraction can refill
// the cell another one emptied and the two alternate forever, so past
// that budget the sketch is reported undecodable. It reports whether
// every cell was consumed.
func (s *SketchB) peelEach(emit func(key uint64, w int64)) bool {
	budget := len(s.counts)
	for progress := true; progress; {
		progress = false
		for i := range s.counts {
			if s.counts[i] == 0 {
				// Cheap count-lane skip: a zero-count cell never decodes
				// (decodeCell rejects it first thing), and most cells of a
				// peeled-down sketch are zero.
				continue
			}
			key, w, fkey, ok := s.decodeCell(i)
			if !ok {
				continue
			}
			if budget--; budget < 0 {
				return false
			}
			s.AddFkey(key, -w, fkey)
			emit(key, w)
			progress = true
		}
	}
	return s.IsZero()
}

// SpaceWords returns the memory footprint in 64-bit words, used by the
// space-accounting experiments (E3).
func (s *SketchB) SpaceWords() int { return s.shape.spaceWords() }
