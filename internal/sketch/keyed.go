package sketch

import (
	"fmt"
	"sort"

	"dynstream/internal/field"
	"dynstream/internal/hashing"
)

// KeyedEdgeSketch is the "linear hash table" H^u_j of Algorithm 2. For a
// terminal cluster T_u it ingests stream updates for edges (w, v) with
// w ∈ T_u ∩ Y_j and v ∉ T_u, keyed by the outside endpoint v, and
// supports the query: "give me one edge from v into T_u". The paper
// implements it as a table with Õ(n^{(i+1)/k}) cells, each holding a
// polylog-bit sketch of N(v) ∩ T_u ∩ Y_j; decodability of the whole
// table is guaranteed because a terminal node has |N(T_u)| =
// O(n^{(i+1)/k} log n) distinct outside neighbors (Claim 11).
//
// Implementation: rows × cells buckets, each accumulating, over the
// edge updates routed to it by hashing the key v,
//
//	edgeCount = Σ δ
//	keySum    = Σ δ·v,     keyFing  = Σ δ·r1^v      (field)
//	edgeSum   = Σ δ·e,     edgeFing = Σ δ·r2^e      (field)
//
// where e encodes the ordered pair (w, v). Because every edge of a key
// hashes to the same bucket per row, a key-pure bucket (detected by the
// fingerprint test) holds that key's complete aggregate, which can be
// peeled out of the key's buckets in the other rows — exactly the
// sparse-recovery decoding of the paper's hash table. The recovered
// per-key aggregate is a one-sparse edge sketch: at the subsampling
// level Y_j where v has a single surviving neighbor in T_u it decodes
// to a concrete edge, mirroring SKETCH_{O(log n)}(N(v) ∩ T_u ∩ Y_j).
//
// Bucket state is stored structure-of-arrays — five flat lanes
// (counts / keySums / keyFings / edgeSums / edgeFings) sliced out of
// one backing array — so that Merge and zero scans run through the
// field batch kernels, like every other sketch in this package. The
// count lane is held as two's complement in a uint64 lane: addition and
// subtraction are bit-identical under the reinterpretation and the zero
// test is unchanged.
//
// A table materializes on first touch. Claim 11 provisions every
// terminal's table for its worst-case neighborhood, but most tables of
// a cluster structure never see an update (wrong subsampling level,
// empty neighborhood), so the constructor keeps only seed, geometry and
// fingerprint bases; the lanes, the row-hash bank and both power tables
// appear on the first non-zero Add/AddBatch, on Merge from a
// materialized table, or on deserialization. An unmaterialized table is
// the zero table in every observable respect: it IsZero, decodes
// nothing, marshals as zero buckets, and reports the same provisioned
// SpaceWords.
type KeyedEdgeSketch struct {
	seed     uint64
	n        int
	rows     int
	cells    int
	keyBase  uint64
	edgeBase uint64

	// Materialized state: nil until first touch (see materialize).
	lanes     []uint64          // backing array of the five lanes below
	counts    []uint64          // edgeCount lane, two's complement
	keySums   []uint64          // Σ δ·v
	keyFings  []uint64          // Σ δ·r1^v
	edgeSums  []uint64          // Σ δ·e
	edgeFings []uint64          // Σ δ·r2^e
	bank      *hashing.PolyBank // all row hashes, one interleaved Horner sweep
	keyTab    *field.PowTable
	edgeTab   *field.PowTable

	recovered map[uint64]keyedAgg
	dirty     bool
	gen       uint64
}

// Gen returns the table's generation counter: a monotonic count of
// state mutations, the key decode-side caches use to detect that a
// table is unchanged since the cached extraction.
func (t *KeyedEdgeSketch) Gen() uint64 { return t.gen }

// BumpGen forces a generation bump (used by whole-state replacement
// such as deserialization).
func (t *KeyedEdgeSketch) BumpGen() { t.gen++; t.dirty = true }

// keyedAgg is one bucket's (or one recovered key's) accumulator
// tuple — the scalar view of the five SoA lanes.
type keyedAgg struct {
	edgeCount int64
	keySum    uint64
	keyFing   uint64
	edgeSum   uint64
	edgeFing  uint64
}

func (b *keyedAgg) isZero() bool {
	return b.edgeCount == 0 && b.keySum == 0 && b.keyFing == 0 &&
		b.edgeSum == 0 && b.edgeFing == 0
}

func (b *keyedAgg) merge(o keyedAgg) {
	b.edgeCount += o.edgeCount
	b.keySum = field.Add(b.keySum, o.keySum)
	b.keyFing = field.Add(b.keyFing, o.keyFing)
	b.edgeSum = field.Add(b.edgeSum, o.edgeSum)
	b.edgeFing = field.Add(b.edgeFing, o.edgeFing)
}

// Touched reports whether the table has materialized its bucket state:
// false means no non-zero update, no merge from a touched table and no
// deserialization has ever reached it.
func (t *KeyedEdgeSketch) Touched() bool { return t.lanes != nil }

// IsZero reports whether the table holds the zero vector's state —
// indistinguishable from a fresh table, which is what lets compressed
// encodings suppress it. An unmaterialized table is zero by
// construction; otherwise one early-exit kernel word scan covers all
// five lanes.
func (t *KeyedEdgeSketch) IsZero() bool { return field.AllZero(t.lanes) }

// pureKey reports whether all mass in a bucket belongs to a single
// key, and returns that key. It is a polynomial-identity fingerprint
// test, sound except with probability ≤ poly(n)/p.
func (t *KeyedEdgeSketch) pureKey(cnt int64, keySum, keyFing uint64) (key uint64, ok bool) {
	if cnt == 0 {
		return 0, false
	}
	cf := field.FromInt64(cnt)
	key = field.Mul(keySum, field.Inv(cf))
	if keyFing != field.Mul(cf, t.keyTab.Pow(key)) {
		return 0, false
	}
	return key, true
}

// NewKeyedEdgeSketch creates a table able to serve about `capacity`
// distinct outside keys, over a graph with n vertices.
func NewKeyedEdgeSketch(seed uint64, n, capacity int) *KeyedEdgeSketch {
	const rows = 3
	cells := 2 * capacity
	if cells < 8 {
		cells = 8
	}
	return newKeyedEdgeSketchGeom(seed, n, rows, cells)
}

// newKeyedEdgeSketchGeom builds the unmaterialized table from its raw
// geometry — the deserialization entry point (rows and cells are
// carried on the wire, so a decoded table matches its encoder cell for
// cell).
func newKeyedEdgeSketchGeom(seed uint64, n, rows, cells int) *KeyedEdgeSketch {
	t := &KeyedEdgeSketch{
		seed:     seed,
		n:        n,
		rows:     rows,
		cells:    cells,
		keyBase:  field.Reduce(hashing.Mix(seed, 0xaa)),
		edgeBase: field.Reduce(hashing.Mix(seed, 0xbb)),
		dirty:    true,
	}
	if t.keyBase < 2 {
		t.keyBase = 2
	}
	if t.edgeBase < 2 {
		t.edgeBase = 2
	}
	return t
}

// setLanes slices the five bucket lanes out of one backing array of
// 5·rows·cells words.
func (t *KeyedEdgeSketch) setLanes(lanes []uint64) {
	nb := t.rows * t.cells
	t.lanes = lanes
	t.counts = lanes[:nb:nb]
	t.keySums = lanes[nb : 2*nb : 2*nb]
	t.keyFings = lanes[2*nb : 3*nb : 3*nb]
	t.edgeSums = lanes[3*nb : 4*nb : 4*nb]
	t.edgeFings = lanes[4*nb : 5*nb : 5*nb]
}

// materialize allocates the zeroed lanes and derives the row hashes
// and power tables from the seed. Like cell mutation it is confined to
// the table's owning goroutine.
func (t *KeyedEdgeSketch) materialize() {
	t.setLanes(make([]uint64, 5*t.rows*t.cells))
	rowHash := make([]*hashing.Poly, t.rows)
	for r := range rowHash {
		rowHash[r] = hashing.NewPoly(hashing.Mix(t.seed, 0xcc, uint64(r)), 6)
	}
	t.bank = hashing.NewPolyBank(rowHash...)
	t.keyTab = field.NewPowTable(t.keyBase)
	t.edgeTab = field.NewPowTable(t.edgeBase)
}

func (t *KeyedEdgeSketch) encode(w, v int) uint64 {
	return uint64(w)*uint64(t.n) + uint64(v)
}

// addAgg folds upd into the buckets of key, one per row.
func (t *KeyedEdgeSketch) addAgg(key uint64, upd keyedAgg) {
	var hbuf [maxBankRows]uint64
	hs := hbuf[:t.rows]
	t.bank.HashPrefix(key, hs)
	cells := uint64(t.cells)
	for r := 0; r < t.rows; r++ {
		i := r*t.cells + int(hs[r]%cells)
		t.counts[i] += uint64(upd.edgeCount)
		t.keySums[i] = field.Add(t.keySums[i], upd.keySum)
		t.keyFings[i] = field.Add(t.keyFings[i], upd.keyFing)
		t.edgeSums[i] = field.Add(t.edgeSums[i], upd.edgeSum)
		t.edgeFings[i] = field.Add(t.edgeFings[i], upd.edgeFing)
	}
}

// Add folds an update for edge (w, v) — w inside the cluster, v the
// outside key — with multiplicity delta. The two fingerprint powers
// (key and edge, distinct bases) share one window traversal through
// field.PowPair.
func (t *KeyedEdgeSketch) Add(w, v int, delta int64) {
	if delta == 0 {
		return
	}
	if t.lanes == nil {
		t.materialize()
	}
	t.dirty = true
	t.gen++
	key := uint64(v)
	e := t.encode(w, v)
	d := field.FromInt64(delta)
	kp, ep := field.PowPair(t.keyTab, t.edgeTab, key, field.Reduce(e))
	t.addAgg(key, keyedAgg{
		edgeCount: delta,
		keySum:    field.Mul(d, field.Reduce(key)),
		keyFing:   field.Mul(d, kp),
		edgeSum:   field.Mul(d, field.Reduce(e)),
		edgeFing:  field.Mul(d, ep),
	})
}

// KeyedEdgeUpdate is one (w, v, delta) edge update for AddBatch.
type KeyedEdgeUpdate struct {
	W, V  int
	Delta int64
}

// KeyedScratch is the working memory of AddBatchWith: the batch's
// fingerprint exponents and powers. The zero value is ready to use; it
// grows to the largest batch it has served and is reused from then on,
// so a caller that adds many batches — a sweep over many tables — keeps
// one and allocates nothing per call. It may serve one call at a time.
type KeyedScratch struct {
	words []uint64 // four lanes of one batch's length: key/edge exponents, key/edge powers
}

// AddBatch folds a batch of edge updates; bit-identical to calling Add
// per element. It is AddBatchWith on a scratch of its own.
func (t *KeyedEdgeSketch) AddBatch(batch []KeyedEdgeUpdate) {
	t.AddBatchWith(batch, new(KeyedScratch))
}

// AddBatchWith folds a batch of edge updates through the caller's
// scratch; bit-identical to calling Add per element. Both fingerprint
// lanes of the whole batch are evaluated with shared window traversals
// (field.FingerprintVec) before the per-update scatter.
func (t *KeyedEdgeSketch) AddBatchWith(batch []KeyedEdgeUpdate, sc *KeyedScratch) {
	live := false
	for _, u := range batch {
		live = live || u.Delta != 0
	}
	if !live {
		return
	}
	if t.lanes == nil {
		t.materialize()
	}
	m := len(batch)
	if cap(sc.words) < 4*m {
		sc.words = make([]uint64, 4*m)
	}
	w := sc.words[:4*m]
	keyExps, edgeExps, keyPows, edgePows := w[:m:m], w[m:2*m:2*m], w[2*m:3*m:3*m], w[3*m:]
	for i, u := range batch {
		keyExps[i] = uint64(u.V)
		edgeExps[i] = field.Reduce(t.encode(u.W, u.V))
	}
	t.keyTab.FingerprintVec(keyPows, keyExps)
	t.edgeTab.FingerprintVec(edgePows, edgeExps)
	for i, u := range batch {
		if u.Delta == 0 {
			continue
		}
		t.dirty = true
		t.gen++
		d := field.FromInt64(u.Delta)
		t.addAgg(uint64(u.V), keyedAgg{
			edgeCount: u.Delta,
			keySum:    field.Mul(d, field.Reduce(uint64(u.V))),
			keyFing:   field.Mul(d, keyPows[i]),
			edgeSum:   field.Mul(d, edgeExps[i]),
			edgeFing:  field.Mul(d, edgePows[i]),
		})
	}
}

// Merge adds another table built with the same seed and geometry; the
// result is the table of the summed update streams, exactly as if every
// update of o had been Added to t. The linearity is what lets Algorithm
// 2's second pass be ingested in parallel shards. An unmaterialized
// source adds nothing; an unmaterialized receiver takes one copy of the
// source's lanes and shares its (immutable) hash bank and power tables;
// otherwise the lanes fold through the batch kernels. The generation
// bump is the same in all three cases.
func (t *KeyedEdgeSketch) Merge(o *KeyedEdgeSketch) error {
	if t.seed != o.seed || t.n != o.n || t.rows != o.rows || t.cells != o.cells {
		return fmt.Errorf("sketch: merging incompatible keyed tables (seed %d/%d, %dx%d vs %dx%d)",
			t.seed, o.seed, t.rows, t.cells, o.rows, o.cells)
	}
	switch {
	case o.lanes == nil: // adds zero
	case t.lanes == nil:
		t.setLanes(append([]uint64(nil), o.lanes...))
		t.bank, t.keyTab, t.edgeTab = o.bank, o.keyTab, o.edgeTab
	default:
		for i, c := range o.counts {
			t.counts[i] += c
		}
		nb := len(t.counts)
		field.AddVec(t.lanes[nb:], t.lanes[nb:], o.lanes[nb:])
	}
	t.dirty = true
	t.gen++
	return nil
}

// peelBucket is one bucket of the peeling work set.
type peelBucket struct {
	idx int
	agg keyedAgg
}

// peelWork is the peeling work set: the table's non-zero buckets in
// ascending bucket order.
type peelWork []peelBucket

// at returns the accumulator of bucket idx. A bucket outside the set
// held zero when the set was gathered — reaching it takes a fingerprint
// false positive or an exact cancellation — and is inserted in order,
// so that the sweep visits it when a scan of the full lanes would;
// *cursor, the sweep's position, keeps pointing at the same bucket.
func (w *peelWork) at(idx int, cursor *int) *keyedAgg {
	q := sort.Search(len(*w), func(i int) bool { return (*w)[i].idx >= idx })
	if q == len(*w) || (*w)[q].idx != idx {
		*w = append(*w, peelBucket{})
		copy((*w)[q+1:], (*w)[q:])
		(*w)[q] = peelBucket{idx: idx}
		if q <= *cursor {
			*cursor++
		}
	}
	return &(*w)[q].agg
}

// peel decodes the whole table: it repeatedly finds a key-pure bucket,
// records that key's aggregate, and subtracts it from the key's buckets
// in every row, until no further progress. Results are cached until the
// next Add. Peeling the table of any actual stream extracts from each
// bucket at most once; a corrupt or hostile state can instead refill
// emptied buckets forever, so past one extraction per bucket the table
// is given up as undecodable: nothing recovered.
//
// The work set is the table's non-zero buckets, gathered once — a
// touched table holds a few keys in thousands of provisioned buckets,
// so peeling never copies or rescans the zeros. Buckets are swept in
// ascending index order pass after pass, exactly the order a scan of
// the full lanes would visit them in.
func (t *KeyedEdgeSketch) peel() {
	if !t.dirty {
		return
	}
	t.dirty = false
	t.recovered = nil
	var work peelWork
	for i := range t.counts {
		if t.counts[i]|t.keySums[i]|t.keyFings[i]|t.edgeSums[i]|t.edgeFings[i] != 0 {
			work = append(work, peelBucket{i, keyedAgg{
				int64(t.counts[i]), t.keySums[i], t.keyFings[i], t.edgeSums[i], t.edgeFings[i]}})
		}
	}
	if len(work) == 0 {
		return
	}
	t.recovered = make(map[uint64]keyedAgg)
	var hbuf [maxBankRows]uint64
	hs := hbuf[:t.rows]
	cells := uint64(t.cells)
	budget := len(t.counts)
	for progress := true; progress; {
		progress = false
		for p := 0; p < len(work); p++ {
			agg := work[p].agg
			if agg.isZero() {
				continue
			}
			key, ok := t.pureKey(agg.edgeCount, agg.keySum, agg.keyFing)
			if !ok {
				continue
			}
			if budget--; budget < 0 {
				t.recovered = nil
				return
			}
			t.bank.HashPrefix(key, hs)
			for r := 0; r < t.rows; r++ {
				b := work.at(r*t.cells+int(hs[r]%cells), &p)
				b.edgeCount -= agg.edgeCount
				b.keySum = field.Sub(b.keySum, agg.keySum)
				b.keyFing = field.Sub(b.keyFing, agg.keyFing)
				b.edgeSum = field.Sub(b.edgeSum, agg.edgeSum)
				b.edgeFing = field.Sub(b.edgeFing, agg.edgeFing)
			}
			prev := t.recovered[key]
			prev.merge(agg)
			if prev.isZero() {
				delete(t.recovered, key)
			} else {
				t.recovered[key] = prev
			}
			progress = true
		}
	}
}

// DecodeKey attempts to recover one edge (w, v) for the outside key v.
// It succeeds when the table peels and v's aggregate contains a single
// net edge — which happens whp at the correct subsampling level Y_j.
func (t *KeyedEdgeSketch) DecodeKey(v int) (w int, ok bool) {
	t.peel()
	b, found := t.recovered[uint64(v)]
	if !found || b.edgeCount == 0 {
		return 0, false
	}
	cf := field.FromInt64(b.edgeCount)
	e := field.Mul(b.edgeSum, field.Inv(cf))
	if b.edgeFing != field.Mul(cf, t.edgeTab.Pow(e)) {
		return 0, false
	}
	wID := int(e / uint64(t.n))
	vID := int(e % uint64(t.n))
	if vID != v || wID < 0 || wID >= t.n {
		return 0, false
	}
	return wID, true
}

// Keys returns the outside keys recovered by peeling — the keys(H^u_j)
// iteration of Algorithm 2.
func (t *KeyedEdgeSketch) Keys() []int {
	t.peel()
	out := make([]int, 0, len(t.recovered))
	for k := range t.recovered {
		out = append(out, int(k))
	}
	return out
}

// SpaceWords returns the provisioned footprint in 64-bit words — the
// paper's space measure, independent of whether the table has
// materialized.
func (t *KeyedEdgeSketch) SpaceWords() int {
	return 5*t.rows*t.cells + 6
}
