package sketch

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// A table stores only the buckets updates have reached: one list of
// (bucket index, accumulator) entries in ascending index order. Claim 11
// provisions every terminal's table for its worst-case neighborhood,
// and SpaceWords reports that provisioned size, but a touched table
// typically holds a few keys in thousands of buckets; the list costs
// what the stream wrote, a batch add sorts its bucket indices and
// merges them in, Merge is a merge-join of two lists, and peeling
// starts from the list. A bucket outside the list is zero. The count
// word wraps as two's complement, as a uint64 lane would.
//
// The hash state appears on first touch: the constructor keeps only
// seed, geometry and fingerprint bases; the row-hash bank and both
// power tables, held in the table itself over one slab of windows,
// appear on the first non-zero Add/AddBatch, on Merge from a touched
// table, or on deserialization. An untouched table is
// the zero table in every observable respect: it IsZero, decodes
// nothing, marshals as zero buckets, and reports the same provisioned
// SpaceWords. So is a nil *KeyedEdgeSketch, as far as it can be read
// (Gen, Touched, IsZero, Peel, Keys, DecodeKey), so callers that create
// tables on first write need not test for the ones not yet created;
// KeyedEdgeWords gives their provisioned size.
//
// A table keeps no decode state: Peel runs through caller-owned
// scratch, so a table costs only what the stream wrote to it.
type KeyedEdgeSketch struct {
	seed     uint64
	n        int
	rows     int
	cells    int
	keyBase  uint64
	edgeBase uint64

	// Touched state: empty until first touch (see materialize).
	buckets []keyedBucket // the buckets updates reached, ascending idx
	keyedHash

	gen uint64
}

// keyedHash is a touched table's hash state, derived from the seed: the
// row hashes as one bank (dot products over one key's powers) and the
// key and edge power tables, whose windows share one slab. It is
// immutable once derived, so a Merge into an untouched table shares it.
type keyedHash struct {
	bank            hashing.PolyBank
	keyTab, edgeTab field.PowTable
}

// Gen returns the table's generation counter: a monotonic count of
// state mutations, the key decode-side caches use to detect that a
// table is unchanged since the cached extraction. A nil table's is 0.
func (t *KeyedEdgeSketch) Gen() uint64 {
	if t == nil {
		return 0
	}
	return t.gen
}

// BumpGen forces a generation bump (used by whole-state replacement
// such as deserialization).
func (t *KeyedEdgeSketch) BumpGen() { t.gen++ }

// keyedAgg is one bucket's (or one recovered key's) accumulator tuple.
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

// keyedBucket is one entry of a table's bucket list, and of the peeling
// work set: bucket idx = row·cells + cell and its accumulator.
type keyedBucket struct {
	idx int
	agg keyedAgg
}

// Touched reports whether the table has its hash state: false means no
// non-zero update, no merge from a touched table and no deserialization
// has ever reached it.
func (t *KeyedEdgeSketch) Touched() bool { return t != nil && t.bank.Lanes() > 0 }

// IsZero reports whether the table holds the zero vector's state —
// indistinguishable from a fresh table, which is what lets compressed
// encodings suppress it. Only listed buckets can be non-zero.
func (t *KeyedEdgeSketch) IsZero() bool {
	if t == nil {
		return true
	}
	for i := range t.buckets {
		if !t.buckets[i].agg.isZero() {
			return false
		}
	}
	return true
}

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
	rows, cells := keyedGeometry(capacity)
	return newKeyedEdgeSketchGeom(seed, n, rows, cells)
}

// keyedGeometry is the bucket layout a capacity gets: three rows of
// 2·capacity cells, at least 8.
func keyedGeometry(capacity int) (rows, cells int) { return 3, max(2*capacity, 8) }

// KeyedEdgeWords is SpaceWords of a table of the given capacity, known
// without creating it — so callers that create tables on first write
// can account for the ones not yet created.
func KeyedEdgeWords(capacity int) int { return keyedWords(keyedGeometry(capacity)) }

// keyedWords is the provisioned footprint of rows × cells buckets: five
// words per bucket plus seed and geometry.
func keyedWords(rows, cells int) int { return 5*rows*cells + 6 }

// newKeyedEdgeSketchGeom builds the untouched table from its raw
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
	}
	if t.keyBase < 2 {
		t.keyBase = 2
	}
	if t.edgeBase < 2 {
		t.edgeBase = 2
	}
	return t
}

// materialize derives the row hashes and power tables from the seed:
// row r hashes with the degree-5 polynomial of seed Mix(seed, 0xcc, r).
// The power tables cover the exponents an update within the graph
// produces — keys below n, edge codes w·n+v below n² — and nothing
// more; an exponent past them (an update with w or v ≥ n, the key or
// edge code of a non-pure bucket) still gets its exact power, by
// square-and-multiply. It allocates the bank's lanes and one slab for
// both tables' windows. Like bucket mutation it is confined to the
// table's owning goroutine.
func (t *KeyedEdgeSketch) materialize() {
	var seeds [maxBankRows]uint64
	for r := range seeds[:t.rows] {
		seeds[r] = hashing.Mix(t.seed, 0xcc, uint64(r))
	}
	t.bank = hashing.SeededBank(6, seeds[:t.rows]...)
	n := uint64(max(t.n, 1))
	edges := uint64(math.MaxUint64) // n² − 1, saturating
	if hi, lo := bits.Mul64(n, n); hi == 0 {
		edges = lo - 1
	}
	kw := field.PowWindows(n - 1)
	slab := make([]field.PowWindow, kw+field.PowWindows(edges))
	t.keyTab.Init(t.keyBase, slab[:kw:kw])
	t.edgeTab.Init(t.edgeBase, slab[kw:])
}

func (t *KeyedEdgeSketch) encode(w, v int) uint64 {
	return uint64(w)*uint64(t.n) + uint64(v)
}

// absorb adds runs — buckets in ascending index order, each index at
// most once — into the list: one forward walk counts the indices the
// list lacks, the list grows once by that many, and a walk from the
// back merges in place, writing every slot the growth added. The
// growth appends runs as placeholders: slices.Grow's append of a made
// slice allocates that slice too under -race.
func (t *KeyedEdgeSketch) absorb(runs []keyedBucket) {
	fresh, i := 0, 0
	for _, r := range runs {
		for i < len(t.buckets) && t.buckets[i].idx < r.idx {
			i++
		}
		if i == len(t.buckets) || t.buckets[i].idx != r.idx {
			fresh++
		}
	}
	old := len(t.buckets)
	t.buckets = append(t.buckets, runs[:fresh]...)
	i, k := old-1, old+fresh-1
	for r := len(runs) - 1; r >= 0; r-- {
		for i >= 0 && t.buckets[i].idx > runs[r].idx {
			t.buckets[k] = t.buckets[i]
			i, k = i-1, k-1
		}
		if i >= 0 && t.buckets[i].idx == runs[r].idx {
			t.buckets[k] = t.buckets[i]
			t.buckets[k].agg.merge(runs[r].agg)
			i--
		} else {
			t.buckets[k] = runs[r]
		}
		k--
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
	if !t.Touched() {
		t.materialize()
	}
	t.gen++
	key := uint64(v)
	e := t.encode(w, v)
	d := field.FromInt64(delta)
	kp, ep := field.PowPair(&t.keyTab, &t.edgeTab, key, field.Reduce(e))
	agg := keyedAgg{
		edgeCount: delta,
		keySum:    field.Mul(d, field.Reduce(key)),
		keyFing:   field.Mul(d, kp),
		edgeSum:   field.Mul(d, field.Reduce(e)),
		edgeFing:  field.Mul(d, ep),
	}
	var hbuf [maxBankRows]uint64
	var runs [maxBankRows]keyedBucket
	hs := hbuf[:t.rows]
	t.bank.HashPrefix(key, hs)
	for r, h := range hs { // row r's buckets follow row r−1's: ascending
		runs[r] = keyedBucket{r*t.cells + int(h%uint64(t.cells)), agg}
	}
	t.absorb(runs[:t.rows])
}

// KeyedEdgeUpdate is one (w, v, delta) edge update for AddBatch.
type KeyedEdgeUpdate struct {
	W, V  int
	Delta int64
}

// radixBits bounds the digit of sortByBucket: a count array of
// 2^radixBits words.
const radixBits = 11

// KeyedScratch is the working memory of AddBatchWith. The zero value is
// ready to use; it grows to the largest batch it has served and is
// reused from then on, so a caller that adds many batches — a sweep
// over many tables — keeps one and allocates nothing per call. It may
// serve one call at a time.
type KeyedScratch struct {
	words  []uint64      // four lanes of one batch's length: key/edge exponents and powers, each then times δ
	packed []uint64      // each live update's bucket indices, bucket<<s | entry
	tmp    []uint64      // sortByBucket's second buffer
	runs   []keyedBucket // the batch folded per bucket, ascending
	count  [1 << radixBits]uint32
}

// AddBatch folds a batch of edge updates; bit-identical to calling Add
// per element. It is AddBatchWith on a scratch of its own.
func (t *KeyedEdgeSketch) AddBatch(batch []KeyedEdgeUpdate) {
	t.AddBatchWith(batch, new(KeyedScratch))
}

// AddBatchWith folds a batch of edge updates through the caller's
// scratch; bit-identical to calling Add per element. Both fingerprint
// lanes of the whole batch are evaluated with shared window traversals
// (field.FingerprintVec); then every live update's bucket per row is
// packed with its entry, the packed words are sorted by bucket, each
// bucket's run is folded into one accumulator, and the runs merge into
// the list. Field addition is commutative, so the sums are the ones
// per-element Adds leave. A table whose buckets are all listed already
// allocates nothing.
func (t *KeyedEdgeSketch) AddBatchWith(batch []KeyedEdgeUpdate, sc *KeyedScratch) {
	live := 0
	for _, u := range batch {
		if u.Delta != 0 {
			live++
		}
	}
	if live == 0 {
		return
	}
	if !t.Touched() {
		t.materialize()
	}
	m := len(batch)
	if cap(sc.words) < 4*m {
		sc.words = make([]uint64, 4*m)
	}
	if cap(sc.packed) < t.rows*live {
		sc.packed = make([]uint64, t.rows*live)
		sc.tmp = make([]uint64, t.rows*live)
	}
	w := sc.words[:4*m]
	keySums, edgeSums, keyFings, edgeFings := w[:m:m], w[m:2*m:2*m], w[2*m:3*m:3*m], w[3*m:]
	for i, u := range batch {
		keySums[i] = uint64(u.V)
		edgeSums[i] = field.Reduce(t.encode(u.W, u.V))
	}
	t.keyTab.FingerprintVec(keyFings, keySums)
	t.edgeTab.FingerprintVec(edgeFings, edgeSums)

	s := uint(bits.Len(uint(m - 1))) // entry bits below the bucket
	var hbuf [maxBankRows]uint64
	hs := hbuf[:t.rows]
	cells := uint64(t.cells)
	packed := sc.packed[:0]
	for i, u := range batch {
		if u.Delta == 0 {
			continue
		}
		d := field.FromInt64(u.Delta) // exponents and powers become the update's δ-multiples
		keySums[i] = field.Mul(d, field.Reduce(keySums[i]))
		keyFings[i] = field.Mul(d, keyFings[i])
		edgeSums[i] = field.Mul(d, edgeSums[i])
		edgeFings[i] = field.Mul(d, edgeFings[i])
		t.bank.HashPrefix(uint64(u.V), hs)
		for r, h := range hs {
			packed = append(packed, uint64(r*t.cells+int(h%cells))<<s|uint64(i))
		}
	}
	t.gen += uint64(live)
	packed = sortByBucket(packed, sc.tmp[:len(packed)], s, bits.Len(uint(t.rows*t.cells-1)), &sc.count)
	runs, entry := sc.runs[:0], uint64(1)<<s-1
	for p := 0; p < len(packed); {
		idx := packed[p] >> s
		var agg keyedAgg
		for ; p < len(packed) && packed[p]>>s == idx; p++ {
			i := packed[p] & entry
			agg.merge(keyedAgg{batch[i].Delta, keySums[i], keyFings[i], edgeSums[i], edgeFings[i]})
		}
		if !agg.isZero() {
			runs = append(runs, keyedBucket{int(idx), agg})
		}
	}
	sc.runs = runs
	t.absorb(runs)
}

// sortByBucket sorts a — words bucket<<s | entry, the bucket below
// 2^idxBits — by bucket with a least-significant-digit radix sort
// through tmp, and returns whichever of the two holds the result. Each
// pass is stable, so a bucket's entries stay in entry order. The digit
// is about log2 len(a) bits wide, so a pass costs O(len(a)): a small
// batch into a large table takes more, cheaper passes.
func sortByBucket(a, tmp []uint64, s uint, idxBits int, count *[1 << radixBits]uint32) []uint64 {
	d := min(max(bits.Len(uint(len(a))), 4), radixBits)
	mask := uint64(1)<<d - 1
	for shift := s; shift < s+uint(idxBits); shift += uint(d) {
		cnt := count[:1<<d]
		clear(cnt)
		for _, x := range a {
			cnt[x>>shift&mask]++
		}
		sum := uint32(0)
		for i, c := range cnt {
			cnt[i], sum = sum, sum+c
		}
		for _, x := range a {
			dg := x >> shift & mask
			tmp[cnt[dg]] = x
			cnt[dg]++
		}
		a, tmp = tmp, a
	}
	return a
}

// Merge adds another table built with the same seed and geometry; the
// result is the table of the summed update streams, exactly as if every
// update of o had been Added to t. The linearity is what lets Algorithm
// 2's second pass be ingested in parallel shards. An untouched source
// adds nothing; an untouched receiver takes one copy of the source's
// list and shares its (immutable) hash state; otherwise
// the two lists merge-join. The generation bump is the same in all
// three cases.
func (t *KeyedEdgeSketch) Merge(o *KeyedEdgeSketch) error {
	if t.seed != o.seed || t.n != o.n || t.rows != o.rows || t.cells != o.cells {
		return fmt.Errorf("sketch: merging incompatible keyed tables (seed %d/%d, n %d/%d, %dx%d vs %dx%d)",
			t.seed, o.seed, t.n, o.n, t.rows, t.cells, o.rows, o.cells)
	}
	switch {
	case !o.Touched(): // adds zero
	case !t.Touched():
		t.buckets = slices.Clone(o.buckets)
		t.keyedHash = o.keyedHash
	default:
		t.absorb(o.buckets)
	}
	t.gen++
	return nil
}

// peelWork is the peeling work set: the table's non-zero buckets in
// ascending bucket order.
type peelWork []keyedBucket

// at returns the accumulator of bucket idx. A bucket outside the set
// held zero when the set was gathered — reaching it takes a fingerprint
// false positive or an exact cancellation — and is inserted in order,
// so that the sweep visits it when a scan of every bucket would;
// *cursor, the sweep's position, keeps pointing at the same bucket.
func (w *peelWork) at(idx int, cursor *int) *keyedAgg {
	q := sort.Search(len(*w), func(i int) bool { return (*w)[i].idx >= idx })
	if q == len(*w) || (*w)[q].idx != idx {
		*w = append(*w, keyedBucket{})
		copy((*w)[q+1:], (*w)[q:])
		(*w)[q] = keyedBucket{idx: idx}
		if q <= *cursor {
			*cursor++
		}
	}
	return &(*w)[q].agg
}

// PeelScratch is the working memory of Peel: the work set and the
// recovered keys. The zero value is ready to use; it grows to the
// largest table it has peeled and is reused from then on, so a worker
// that peels many tables keeps one and allocates nothing per table. It
// may serve one call at a time, and a call's result lives in it until
// the next.
type PeelScratch struct {
	work peelWork
	keys []PeeledKey
}

// PeeledKey is one outside key a peel recovered, with the edge its net
// aggregate decodes to.
type PeeledKey struct {
	V  int  // the outside key
	W  int  // the inside endpoint of V's one net edge, when OK
	OK bool // V's aggregate is one net edge (W, V) with W < n

	agg keyedAgg
}

// Peel decodes the whole table into sc and returns the recovered keys
// in ascending order, each with its decoded edge — the keys(H^u_j)
// iteration of Algorithm 2 and its per-key probe in one sweep. It
// repeatedly finds a key-pure bucket, records that key's aggregate, and
// subtracts it from the key's buckets in every row, until no further
// progress. Peeling the table of any actual stream extracts from each
// bucket at most once; a corrupt or hostile state can instead refill
// emptied buckets forever, so past one extraction per provisioned
// bucket the table is given up as undecodable: nothing recovered.
//
// The work set is the list's non-zero buckets, swept in ascending index
// order pass after pass — exactly the order a scan of every provisioned
// bucket would visit them in. Extractions are appended as they happen,
// then sorted by key and folded: a key extracted twice sums, and a key
// whose sum is zero is dropped. Peel does not change the table, and a
// nil table peels to nothing.
func (t *KeyedEdgeSketch) Peel(sc *PeelScratch) []PeeledKey {
	sc.keys = sc.keys[:0]
	if t == nil {
		return sc.keys
	}
	work := sc.work[:0]
	for _, b := range t.buckets {
		if !b.agg.isZero() {
			work = append(work, b)
		}
	}
	var hbuf [maxBankRows]uint64
	hs := hbuf[:t.rows]
	cells := uint64(t.cells)
	budget := t.rows * t.cells
	for progress := len(work) > 0; progress; {
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
				sc.work, sc.keys = work, sc.keys[:0]
				return sc.keys
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
			sc.keys = append(sc.keys, PeeledKey{V: int(key), agg: agg})
			progress = true
		}
	}
	sc.work = work
	slices.SortFunc(sc.keys, func(a, b PeeledKey) int { return cmp.Compare(a.V, b.V) })
	keys := sc.keys[:0] // written behind the read position
	for i := 0; i < len(sc.keys); {
		k := sc.keys[i]
		for i++; i < len(sc.keys) && sc.keys[i].V == k.V; i++ {
			k.agg.merge(sc.keys[i].agg)
		}
		if !k.agg.isZero() {
			k.W, k.OK = t.edge(k.V, k.agg)
			keys = append(keys, k)
		}
	}
	sc.keys = keys
	return keys
}

// edge decodes key v's recovered aggregate: the inside endpoint w of
// its one net edge (w, v), if the aggregate is one.
func (t *KeyedEdgeSketch) edge(v int, b keyedAgg) (w int, ok bool) {
	if b.edgeCount == 0 {
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

// DecodeKey attempts to recover one edge (w, v) for the outside key v.
// It succeeds when the table peels and v's aggregate contains a single
// net edge — which happens whp at the correct subsampling level Y_j.
// It peels the whole table; a caller probing many keys peels once.
func (t *KeyedEdgeSketch) DecodeKey(v int) (w int, ok bool) {
	keys := t.Peel(new(PeelScratch))
	i, found := slices.BinarySearchFunc(keys, v, func(k PeeledKey, v int) int { return cmp.Compare(k.V, v) })
	if !found {
		return 0, false
	}
	return keys[i].W, keys[i].OK
}

// Keys returns the outside keys recovered by peeling, ascending.
func (t *KeyedEdgeSketch) Keys() []int {
	keys := t.Peel(new(PeelScratch))
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = k.V
	}
	return out
}

// SpaceWords returns the provisioned footprint in 64-bit words — the
// paper's space measure, independent of whether the table has
// materialized.
func (t *KeyedEdgeSketch) SpaceWords() int { return keyedWords(t.rows, t.cells) }
