package sketch

import (
	"cmp"
	"errors"
	"slices"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
)

// errIncompatible is returned when merging sketches built with
// different seeds or geometries.
var errIncompatible = errors.New("sketch: merging incompatible sketches")

// Lane layout. An L0Sampler's state is flat uint64 lanes, no per-level
// objects. One level is a block of 3·cells words — the count lane (two's
// complement), the key-sum lane, the fingerprint lane, cells words each
// — and the field kernels run on the three sub-slices directly:
//
//	sampler  {fam, l0, tail}                   56 bytes, no other headers
//	l0       [counts | keySums | fings]        level 0
//	tail     [level 1][level 2] ... [level top]  one block, same shape each
//
// Level 0 takes every update, levels j >= 1 take one in 2^j. A grid
// (NewL0Grid) therefore lays every sampler's level 0 out in one arena,
// vertex-major and round-minor — the R samplers one stream update hits
// per endpoint are R consecutive slots — and gives each sampler one
// private tail.
//
// Prefix invariant: an update at geometric level lv writes levels
// 0..lv, and Merge/SetTo/UnmarshalBinary extend the receiver to the
// source's highest non-zero level, so the materialized levels are
// always a prefix 0..top. Levels past the tail are the zero sketch and
// cost nothing; an update that reaches a new top reallocates the tail
// once and copies it, about log2(updates) times in a sampler's life.
// A sampler outside a grid has no level 0 either until something is
// added to it.
//
// Top invariant: the highest tail level is never all-zero. An update or
// a merge that leaves the top level canceled to zero trims the tail
// (keeping its capacity, so regrowing it does not allocate), SetTo
// copies a trimmed state and UnmarshalBinary refuses a present all-zero
// level. So the top is the highest non-zero level whenever there is a
// tail, and only level 0 can be materialized and all-zero at the top.
// Lower levels may still cancel to zero: zero is by content there (the
// encodings, Sample), a materialized all-zero level and an absent one
// being indistinguishable.

// L0Family is the immutable randomness and geometry shared by every
// L0Sampler built from one (seed, universe, perLevel) triple: the level
// hash, the tie-break hash, and one SketchB shape (hash rows +
// fingerprint power table) per geometric level. The AGM sketch keeps n
// samplers per Borůvka round, all from the same family — sharing the
// family makes construction O(1) hash/table objects per round instead
// of O(n·levels), and lets one update's routing (level, fingerprint
// powers, cell indices) be computed once and replayed into any sampler
// of the family (see Hint / AddHint).
type L0Family struct {
	seed      uint64
	universe  uint64
	perLevel  int
	rows      int // uniform across levels (same perLevel everywhere)
	cells     int // cells per level, uniform likewise
	levelHash *hashing.Poly
	choiceFn  *hashing.Poly
	levels    []*sketchBShape
	// bank holds every level's row hashes (level-major, row-minor), so
	// route evaluates the (level+1)×rows bucket hashes of one update as
	// dot products over the key's shared powers.
	bank hashing.PolyBank
}

// MaxL0PerLevel is the largest per-level recovery budget an L0 family
// accepts: it keeps a level (3 rows × 1.5·perLevel columns) within the
// 65536 cells a packed uint16 cell index can address. It is also a wire
// bound: the L0Sampler and agm.Sketch decoders reject a larger perLevel
// as corrupt.
const MaxL0PerLevel = 1 << 13

// NewL0Family derives the family exactly as NewL0Sampler always did, so
// samplers over a shared family are bit-identical to standalone ones.
// perLevel above MaxL0PerLevel is a programming error and panics.
func NewL0Family(seed uint64, universe uint64, perLevel int) *L0Family {
	if perLevel > MaxL0PerLevel {
		// Routing stores cell indices as uint16. Decoders check the bound
		// before they get here.
		panic("sketch: L0 perLevel exceeds MaxL0PerLevel")
	}
	nLevels := 2
	for u := universe; u > 1; u >>= 1 {
		nLevels++
	}
	if perLevel < 2 {
		perLevel = 2
	}
	f := &L0Family{
		seed:      seed,
		universe:  universe,
		perLevel:  perLevel,
		levelHash: hashing.NewPoly(hashing.Mix(seed, 0x10), 8),
		choiceFn:  hashing.NewPoly(hashing.Mix(seed, 0xc4), 6),
		levels:    make([]*sketchBShape, nLevels),
	}
	for j := range f.levels {
		f.levels[j] = newSketchBShape(hashing.Mix(seed, 0x1b, uint64(j)), perLevel, SketchConfig{})
	}
	f.rows = f.levels[0].rows
	f.cells = f.levels[0].cells()
	for _, sh := range f.levels {
		f.bank.Append(&sh.bank)
	}
	return f
}

// levelWords is the size of one level's block: three lanes of cells.
func (f *L0Family) levelWords() int { return 3 * f.cells }

// same reports whether two families carry the same randomness.
func (f *L0Family) same(o *L0Family) bool {
	return f == o || (f != nil && o != nil &&
		f.seed == o.seed && f.universe == o.universe && f.perLevel == o.perLevel)
}

// NewSampler returns a zeroed sampler of the family: no lanes at all
// until the first update.
func (f *L0Family) NewSampler() *L0Sampler { return &L0Sampler{fam: f} }

// L0SlotWords is the size in words of one sampler's level-0 slot in a
// grid over families of the given perLevel: NewL0Grid allocates n·R of
// them.
func L0SlotWords(perLevel int) int {
	_, rows, cols := sketchBGeometry(max(perLevel, 2), SketchConfig{})
	return 3 * rows * cols
}

// NewL0Grid returns n·R zeroed samplers, R = len(fams): the sampler of
// vertex v in family r is element v·R+r. Their level-0 lanes are
// consecutive slots of one arena in that same order, so the R samplers
// an edge update hits at one endpoint — and their level-0 cells, which
// every update writes — are one contiguous run, found by index.
func NewL0Grid(fams []*L0Family, n int) []L0Sampler {
	stride := 0
	for _, f := range fams {
		stride += f.levelWords()
	}
	arena := make([]uint64, n*stride)
	grid := make([]L0Sampler, 0, n*len(fams))
	for v := 0; v < n; v++ {
		for _, f := range fams {
			w := f.levelWords()
			grid = append(grid, L0Sampler{fam: f, l0: arena[:w:w]})
			arena = arena[w:]
		}
	}
	return grid
}

// NewSamplerGrid is NewL0Grid seen as out[r][v], one pointer per
// sampler, for callers that address a sampler by (family, vertex).
func NewSamplerGrid(fams []*L0Family, n int) [][]*L0Sampler {
	grid := NewL0Grid(fams, n)
	out := make([][]*L0Sampler, len(fams))
	for r := range out {
		out[r] = make([]*L0Sampler, n)
		for v := range out[r] {
			out[r][v] = &grid[v*len(fams)+r]
		}
	}
	return out
}

// Warm materializes every level shape's lazy fingerprint power table.
// A batch ingest that routes its parts concurrently calls it first:
// materialization is confined to one goroutine, so concurrent routers
// must find the tables already built.
func (f *L0Family) Warm() {
	for _, sh := range f.levels {
		sh.tab()
	}
}

// L0Hint is the key-dependent routing of one update, valid for every
// sampler of the family that produced it: the geometric level, and per
// surviving level the fingerprint power and the target cell index per
// hash row. Computing it once and applying it to several samplers
// saves the hash work; reusing the hint buffer across updates keeps the
// fold allocation-free. Batch ingest routes through the packed L0Routes
// instead.
type L0Hint struct {
	level int
	fkeys []uint64
	cells []uint16 // (level+1)×rows target indices, row-major per level
	hash  []uint64 // banked row-hash scratch, reused across calls
}

// Level returns the geometric level of the hinted key: applying the
// hint writes levels 0..Level() of a sampler.
func (h *L0Hint) Level() int { return h.level }

// Hint fills h with the routing of key. Slices are reused across
// calls, sized once for the family's deepest level.
func (f *L0Family) Hint(key uint64, h *L0Hint) {
	if n := len(f.levels); cap(h.fkeys) < n {
		h.fkeys = make([]uint64, n)
		h.cells = make([]uint16, n*f.rows)
		h.hash = make([]uint64, n*f.rows)
	}
	var pw hashing.Powers
	hashing.PowersOf(key, &pw)
	lvls := f.route(&pw, h.fkeys[:cap(h.fkeys)], h.cells[:cap(h.cells)], h.hash)
	h.level = lvls - 1
	h.fkeys = h.fkeys[:lvls]
	h.cells = h.cells[:lvls*f.rows]
}

// Level returns the geometric level of the key with powers pw: an
// update of the key writes levels 0..Level() of a sampler of the family.
// It is L0Hint.Level without the routing, clamped to the family's
// deepest level as route clamps it.
func (f *L0Family) Level(pw *hashing.Powers) int {
	return min(f.levelHash.LevelPow(pw), len(f.levels)-1)
}

// route writes the routing of the key with powers pw in place and
// returns the number of levels lv+1 the update reaches: one fingerprint
// power per level into fkeys, rows cell indices per level into cells.
// fkeys, cells and the hash scratch must have room for the family's
// deepest level. The level hash and the bucket hashes of every
// surviving level are dot products over pw, which the caller computes
// once for all families, and the per-level fingerprint powers are
// evaluated two levels at a time with a shared window traversal
// (field.PowPair) — all bit-identical to the per-row, per-level scalar
// evaluation.
func (f *L0Family) route(pw *hashing.Powers, fkeys []uint64, cells []uint16, hash []uint64) int {
	lv := f.Level(pw)
	rows := f.rows
	hs := hash[:(lv+1)*rows]
	f.bank.HashPrefixPow(pw, hs)
	cells = cells[:len(hs)]
	for j := 0; j <= lv; j++ {
		cols := f.levels[j].cols
		for r := 0; r < rows; r++ {
			cells[j*rows+r] = uint16(r*cols + int(hs[j*rows+r]%uint64(cols)))
		}
	}
	red := pw[1] // the reduced key
	fkeys = fkeys[:lv+1]
	j := 0
	for ; j+1 <= lv; j += 2 {
		fkeys[j], fkeys[j+1] = field.PowPair(f.levels[j].tab(), f.levels[j+1].tab(), red, red)
	}
	if j <= lv {
		fkeys[j] = f.levels[j].tab().Pow(red)
	}
	return lv + 1
}

// L0Sampler recovers one element of the support of a signed integer
// vector presented as a dynamic stream. The paper references
// L0-sampling as the alternative to its explicit Y_j sets ("the use of
// the sets Y_j could be eliminated by using L0-SAMPLER in a similar way
// as [AGM12a] does"); the AGM spanning-forest substrate (Theorem 10) is
// built directly on these.
//
// Implementation: geometric subsampling levels; level j sketches the
// coordinates sampled at rate 2^-j with a small SketchB, stored as flat
// lanes (see the layout comment at the top of this file). Sampling
// walks from the sparsest level down and returns an element of the
// first level that decodes to a nonempty vector.
type L0Sampler struct {
	fam  *L0Family
	l0   []uint64 // level 0; empty = not materialized (never in a grid)
	tail []uint64 // levels 1..top, contiguous
}

// NewL0Sampler creates a sampler for keys from a universe of the given
// size. perLevel is the sparse-recovery budget at each level; 4–8 is
// plenty because some level has Θ(1) expected survivors.
func NewL0Sampler(seed uint64, universe uint64, perLevel int) *L0Sampler {
	return NewL0Family(seed, universe, perLevel).NewSampler()
}

// top returns the highest materialized level, -1 when there is none.
func (s *L0Sampler) top() int {
	if len(s.l0) == 0 {
		return -1
	}
	return len(s.tail) / s.fam.levelWords()
}

// level returns the block of materialized level j.
func (s *L0Sampler) level(j int) []uint64 {
	if j == 0 {
		return s.l0
	}
	w := s.fam.levelWords()
	return s.tail[(j-1)*w : j*w]
}

// lanes returns the three lanes of materialized level j.
func (s *L0Sampler) lanes(j int) (counts, keySums, fings []uint64) {
	b, c := s.level(j), s.fam.cells
	return b[:c], b[c : 2*c], b[2*c : 3*c]
}

// topNonZero returns the highest level with a non-zero cell, -1 when
// the sampler sketches the zero vector: by the top invariant, the top
// itself unless only level 0 is materialized.
func (s *L0Sampler) topNonZero() int {
	if len(s.tail) > 0 {
		return s.top()
	}
	if field.AllZero(s.l0) {
		return -1
	}
	return 0
}

// trimIfTop restores the top invariant after a write that reached
// level top: all-zero levels come off the top of the tail, which keeps
// its capacity. A write below the top leaves the top as it was.
func (s *L0Sampler) trimIfTop(top int) {
	w := s.fam.levelWords()
	if len(s.tail) != top*w {
		return
	}
	for n := len(s.tail); n > 0 && field.AllZero(s.tail[n-w:n]); n -= w {
		s.tail = s.tail[:n-w]
	}
}

// grow returns b extended to n words, the extension zeroed; spare
// capacity (a scratch sampler's) is reused.
func grow(b []uint64, n int) []uint64 {
	if n <= cap(b) {
		clear(b[len(b):n])
		return b[:n]
	}
	t := make([]uint64, n)
	copy(t, b)
	return t
}

// reach materializes levels 0..top.
func (s *L0Sampler) reach(top int) {
	w := s.fam.levelWords()
	if len(s.l0) == 0 {
		s.l0 = grow(s.l0, w)
	}
	if top*w > len(s.tail) {
		s.tail = grow(s.tail, top*w)
	}
}

// Add folds x[key] += delta into the sampler.
func (s *L0Sampler) Add(key uint64, delta int64) {
	s.AddBatch([]uint64{key}, []int64{delta})
}

// AddBatch folds a batch of updates. keys and deltas must have equal
// length.
func (s *L0Sampler) AddBatch(keys []uint64, deltas []int64) {
	var h L0Hint
	for i, key := range keys {
		if deltas[i] == 0 {
			continue
		}
		s.fam.Hint(key, &h)
		s.AddHint(key, deltas[i], &h)
	}
}

// AddHint folds x[key] += delta using a routing hint produced by this
// sampler's family for the same key.
func (s *L0Sampler) AddHint(key uint64, delta int64, h *L0Hint) {
	if delta == 0 {
		return
	}
	d := field.FromInt64(delta)
	s.apply(delta, d, field.Mul(d, field.Reduce(key)), h.fkeys, h.cells)
}

// apply folds one routed update into the sampler: fkeys holds the
// fingerprint power of each level the update reaches, cells the rows
// target indices per level. d is delta as a field element and ks is
// d·key, both level-independent and shared by every sampler the update
// lands in.
func (s *L0Sampler) apply(delta int64, d, ks uint64, fkeys []uint64, cells []uint16) {
	top := len(fkeys) - 1
	s.reach(top)
	rows := s.fam.rows
	for j, fk := range fkeys {
		c, k, f := s.lanes(j)
		field.ScatterAdd3(c, k, f, uint64(delta), ks, field.Mul(d, fk), cells[j*rows:(j+1)*rows])
	}
	s.trimIfTop(top)
}

// Merge adds another sampler built with the same seed; the result
// samples from the support of the summed vectors. It merges level by
// level up to o's highest non-zero level, and trims when that level was
// the receiver's top too. A source that sketches the zero vector —
// nothing materialized, or churn canceled back to zero — merges to a
// no-op.
func (s *L0Sampler) Merge(o *L0Sampler) error {
	if !s.fam.same(o.fam) {
		return errIncompatible
	}
	top := o.topNonZero()
	if top < 0 {
		return nil
	}
	s.reach(top)
	for j := 0; j <= top; j++ {
		dc, dk, df := s.lanes(j)
		sc, sk, sf := o.lanes(j)
		field.MergeCells(dc, dk, df, sc, sk, sf)
	}
	s.trimIfTop(top)
	return nil
}

// SetTo makes s a copy of o, adopting o's family and reusing s's lane
// storage.
func (s *L0Sampler) SetTo(o *L0Sampler) {
	s.fam = o.fam
	s.l0 = append(s.l0[:0], o.l0...)
	s.tail = append(s.tail[:0], o.tail...)
}

// IsZero reports whether the sampler holds the zero vector's state:
// by the top invariant, no tail and level 0 absent or all-zero. A zero
// sampler is indistinguishable from a fresh one, which is what lets the
// compressed encodings suppress it entirely.
func (s *L0Sampler) IsZero() bool {
	return len(s.tail) == 0 && field.AllZero(s.l0)
}

// SampleScratch is the working memory of SampleSum and SampleWith: one
// level's sum and decode instance and the peel's recovered items. The
// zero value is ready to use; it is sized by the first family it
// decodes and reused from then on, so a decode that keeps one
// allocates nothing per Sample. It serves one call at a time.
type SampleScratch struct {
	sum   []uint64
	level *SketchB
	items []sampleItem
	// Blocks counts the member level blocks the scratch's samples have
	// read, one per (member, level) pair walked; the caller may reset it.
	Blocks int64
	// Level is the level the last sample decoded its pick at, 0 when it
	// returned none. Only the sum's levels Level and above decide that
	// sample: levels above it decoded to nothing or failed.
	Level int
}

type sampleItem struct {
	key    uint64
	weight int64
}

// Sample returns one support element (key and net weight). ok=false
// means the vector is (whp) zero or every level failed to decode — a
// 1/poly(n) probability event for nonzero vectors.
func (s *L0Sampler) Sample() (key uint64, weight int64, ok bool) {
	return s.SampleWith(new(SampleScratch))
}

// SampleWith is Sample through caller-owned scratch: SampleSum of s
// alone.
func (s *L0Sampler) SampleWith(sc *SampleScratch) (key uint64, weight int64, ok bool) {
	one := [1]*L0Sampler{s}
	key, weight, ok, _ = SampleSum(one[:], sc) // one family: no error
	return key, weight, ok
}

// SampleSum returns Sample of the sum of ss, samplers of one family,
// without building the sum. Sample walks from the sum's top non-zero
// level down to the first level that decodes to a non-empty vector, so
// SampleSum sums each level only when the walk reaches it: from the
// members' highest top down, level j is the sum of the level-j blocks
// of the members whose top is at least j, and the walk stops where
// Sample would. Levels above the sum's own top cancel to zero and
// decode to nothing, as Sample skips them. Every member level is read
// at most once, so the cost is at most that of merging the members,
// and usually a level or two of it. The level the pick came from is
// left in sc.Level. A family mismatch is errIncompatible, as in Merge.
func SampleSum(ss []*L0Sampler, sc *SampleScratch) (key uint64, weight int64, ok bool, err error) {
	sc.Level = 0
	if len(ss) == 0 {
		return 0, 0, false, nil
	}
	fam, hi := ss[0].fam, -1
	for _, m := range ss {
		if !fam.same(m.fam) {
			return 0, 0, false, errIncompatible
		}
		hi = max(hi, m.top())
	}
	if hi < 0 {
		return 0, 0, false, nil
	}
	cells, w := fam.cells, fam.levelWords()
	work := sc.level
	if work == nil || len(work.counts) != cells {
		work = fam.levels[hi].instance()
		sc.level = work
	}
	for j := hi; j >= 0; j-- {
		// The level's sum: the one member block in place, or the blocks
		// merged into the scratch.
		var sum []uint64
		n := 0
		for _, m := range ss {
			if len(m.l0) == 0 || len(m.tail) < j*w {
				continue // level j is past m's top
			}
			b := m.level(j)
			switch n {
			case 0:
				sum = b
			case 1:
				sc.sum = append(sc.sum[:0], sum...)
				sum = sc.sum
				fallthrough
			default:
				field.MergeCells(sum[:cells], sum[cells:2*cells], sum[2*cells:w], b[:cells], b[cells:2*cells], b[2*cells:w])
			}
			n++
		}
		sc.Blocks += int64(n)
		work.shape = fam.levels[j]
		for i, c := range sum[:cells] {
			work.counts[i] = int64(c)
		}
		copy(work.keySums, sum[cells:2*cells])
		copy(work.fings, sum[2*cells:w])
		items := sc.items[:0]
		decoded := work.peelEach(func(key uint64, w int64) {
			items = append(items, sampleItem{key, w})
		})
		items = foldItems(items)
		sc.items = items
		// An overloaded level fails to decode and a zero one decodes to
		// nothing: keep scanning downward, give up after level 0.
		if !decoded || len(items) == 0 {
			continue
		}
		// Choose the item with the minimum choice-hash so that the
		// sample is a near-uniform function of the support, not of the
		// decode order; the items ascend by key, so a tie goes to the
		// smaller key.
		var bestH uint64
		for i, it := range items {
			if h := fam.choiceFn.Hash(it.key); i == 0 || h < bestH {
				key, weight, bestH = it.key, it.weight, h
			}
		}
		sc.Level = j
		return key, weight, true, nil
	}
	return 0, 0, false, nil
}

// foldItems sorts a peel's extractions by key and sums each key's,
// dropping the keys whose sum is zero: the net vector the map-based
// peel holds.
func foldItems(items []sampleItem) []sampleItem {
	slices.SortFunc(items, func(a, b sampleItem) int { return cmp.Compare(a.key, b.key) })
	out := items[:0]
	for _, it := range items {
		if n := len(out); n > 0 && out[n-1].key == it.key {
			out[n-1].weight += it.weight
			continue
		}
		if n := len(out); n > 0 && out[n-1].weight == 0 {
			out = out[:n-1]
		}
		out = append(out, it)
	}
	if n := len(out); n > 0 && out[n-1].weight == 0 {
		out = out[:n-1]
	}
	return out
}

// SpaceWords returns the memory footprint in 64-bit words. Every level
// counts at full size: this is the paper-facing space accounting, which
// describes the sketch as a linear projection independent of how
// sparsely the implementation materializes it.
func (s *L0Sampler) SpaceWords() int {
	return 2 + len(s.fam.levels)*s.fam.levels[0].spaceWords()
}
