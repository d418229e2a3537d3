// Package agm implements the graph-connectivity sketch of Ahn, Guha and
// McGregor [AGM12a] — the paper's Theorem 10 substrate: a single-pass
// linear sketch from which a spanning forest of the streamed graph can
// be extracted with high probability.
//
// Each vertex v keeps L0-samplers of its signed edge-incidence vector:
// edge {a, b} with a < b contributes +1 at coordinate enc(a,b) of a's
// vector and −1 of b's. Summing the vectors of a vertex set S cancels
// internal edges exactly, leaving the edge boundary ∂S — so Borůvka
// rounds can repeatedly sample outgoing edges of current components and
// merge. The two linearity properties the paper exploits are explicit
// here: SubtractEdges (used by Algorithm 3 to remove E_low before
// computing the forest) and the ability to run the forest on supernode
// groups (collapsing clusters T_u).
package agm

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// Sketch is the per-graph AGM connectivity sketch: `rounds` independent
// L0-samplers per vertex, one consumed per Borůvka round. All samplers
// of a round share one L0Family (hash functions, fingerprint power
// tables, geometry), and the samplers are one flat vertex-major array
// over one level-0 arena (sketch.NewL0Grid), so New allocates O(rounds)
// objects instead of n×rounds×levels and ingest finds a vertex's
// samplers by index.
type Sketch struct {
	seed   uint64
	n      int
	rounds int
	fam    []*sketch.L0Family // fam[r]: shared randomness of round r
	samp   []sketch.L0Sampler // vertex v, round r at v·rounds+r: see at
	perLvl int

	// Decode cache (EnableDecodeCache): per-(round, component) Borůvka
	// picks from the previous extraction, reused when the component's
	// member list and the generation sum of its samplers are unchanged.
	// Flat per-round arrays indexed by the component's union-find root —
	// a map would put ~n lookups per round on the serial re-query path.
	caching bool
	picks   [][]pickEntry // picks[r][root]

	// Merged-sampler cache: each decoded component's summed sampler,
	// indexed by round and minimum member (stable across queries, unlike
	// the union-find root). A dirty component refreshes its cached sum
	// instead of re-merging every member sampler: fold the logged
	// updates since its last sync, then reconcile the membership delta
	// by merging gained members and subtracting lost ones — every step
	// an exact linear cell operation. log records every AddEdge while
	// caching is on; logGen invalidates fold windows when the log
	// resets; epoch invalidates them on non-logged mutations (Merge).
	merges [][]*mergeEntry // merges[r][minMember]
	log    []logUpd
	logGen uint64
	epoch  uint64

	// Cumulative cache-pass outcomes while caching is on: a hit is a
	// component whose cached pick was served without re-decoding, a miss
	// is a dirty component that fanned out to the workers. Read by
	// DecodeCacheStats for operational visibility (daemon /metrics).
	cacheHits   uint64
	cacheMisses uint64
}

// DecodeCacheStats reports the cumulative decode-cache hit and miss
// counts of this sketch's extraction cache pass. Both are zero until a
// cached extraction runs (EnableDecodeCache). Counters are cumulative
// across queries and survive cache invalidation.
func (s *Sketch) DecodeCacheStats() (hits, misses uint64) {
	return s.cacheHits, s.cacheMisses
}

// mergeCacheMinMembers is the component size from which extraction
// keeps the component's merged sampler between queries. Singletons
// never need an entry — their "sum" is the vertex sampler itself,
// sampled in place.
const mergeCacheMinMembers = 2

// logUpd is one logged stream update in canonical (a < b) form.
type logUpd struct {
	key   uint64
	a, b  int32
	delta int64
}

// mergeEntry caches one component's merged sampler. samp equals the
// sum of members' samplers as of (logGen, logPos): provided no
// non-logged mutation happened (epoch) and the log window survives
// (logGen), folding log[logPos:] restricted to members reproduces the
// current sum bit for bit, because cell updates are commutative and
// associative field additions. genSum lets a clean re-query re-stamp
// the entry without any folding.
type mergeEntry struct {
	members []int
	genSum  uint64
	epoch   uint64
	logGen  uint64
	logPos  int
	samp    *sketch.L0Sampler

	// Cached Sample() result drawn from samp in its current state.
	// Valid while pickKnown and samp untouched: a refresh that applies
	// zero log hints and no membership delta leaves the sum — and so
	// the deterministic Sample — bit-identical, letting the decode be
	// skipped outright.
	pa, pb    int
	pok       bool
	pickKnown bool
}

// pickEntry is a cached component decode. members is the exact member
// list the pick was drawn over (nil marks an empty slot); genSum is
// the sum of those members' sampler generations at decode time.
// Generations are monotonic and bump on every mutation, so an equal
// member list with an equal generation sum implies every member
// sampler is bit-identical to the cached decode's input — and Sample
// is a deterministic function of that state, so the cached pick IS the
// pick a fresh decode would draw.
type pickEntry struct {
	members []int
	genSum  uint64
	a, b    int
	ok      bool
}

// EnableDecodeCache turns on (or off) the per-component pick cache
// used by SpanningForestOpts. Off (the default) keeps one-shot builds
// allocation-lean; live handles turn it on so that re-queries after
// small update batches re-decode only components whose samplers
// changed (the Liu–Tarjan-style restart from the previous labeling).
// Turning it off releases the cache.
func (s *Sketch) EnableDecodeCache(on bool) {
	s.caching = on
	if !on {
		s.picks = nil
		s.merges = nil
		s.log = nil
		s.logGen++
	}
}

// InvalidateDecodeCache drops every cached component decode; the next
// extraction runs cold. Correctness never requires calling this — the
// generation checks already reject stale entries — it only bounds
// memory or forces a cold decode for measurement.
func (s *Sketch) InvalidateDecodeCache() {
	s.picks = nil
	s.merges = nil
	s.log = s.log[:0]
	s.logGen++
}

// cachedPickCount reports how many component decodes the pick cache
// currently holds (test hook).
func (s *Sketch) cachedPickCount() int {
	count := 0
	for _, row := range s.picks {
		for i := range row {
			if row[i].members != nil {
				count++
			}
		}
	}
	return count
}

// GenSum reports the total sampler generation over the given vertices
// across all rounds — the monotonic dirtiness signal the decode cache
// keys on. An unchanged GenSum over a vertex set means no mutation
// (AddUpdate, Merge, Unmarshal) touched any of those samplers, so a
// cached component decode over them is still exact. Tests use it to
// pin down which components a Merge actually dirtied.
func (s *Sketch) GenSum(vertices ...int) uint64 {
	var sum uint64
	for r := 0; r < s.rounds; r++ {
		sum += s.genSumOf(r, vertices)
	}
	return sum
}

// genSumOf sums the generation counters of the given members' samplers
// in round r.
func (s *Sketch) genSumOf(r int, members []int) uint64 {
	var sum uint64
	for _, v := range members {
		sum += s.at(r, v).Gen()
	}
	return sum
}

// intsEqual reports whether two int slices are element-wise equal.
func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Config tunes the sketch.
type Config struct {
	// Rounds is the number of Borůvka rounds (default ceil(log2 n)+2).
	Rounds int
	// PerLevel is the sparse-recovery budget per L0 level (default 4).
	PerLevel int
}

// New creates an AGM sketch for a graph on n vertices.
func New(seed uint64, n int, cfg Config) *Sketch {
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 2
		for x := 1; x < n; x *= 2 {
			rounds++
		}
	}
	perLvl := cfg.PerLevel
	if perLvl == 0 {
		perLvl = 4
	}
	s := &Sketch{seed: seed, n: n, rounds: rounds, perLvl: perLvl}
	universe := uint64(n) * uint64(n)
	s.fam = make([]*sketch.L0Family, rounds)
	for r := 0; r < rounds; r++ {
		// All vertices share one projection per round: summing vertex
		// sketches must equal sketching the summed incidence vectors,
		// so the hash functions are a function of the round only — one
		// family per round.
		roundSeed := hashing.Mix(seed, uint64(r))
		s.fam[r] = sketch.NewL0Family(roundSeed, universe, perLvl)
	}
	s.samp = sketch.NewL0Grid(s.fam, n)
	return s
}

// at returns vertex v's sampler of round r.
func (s *Sketch) at(r, v int) *sketch.L0Sampler { return &s.samp[v*s.rounds+r] }

// N returns the vertex count.
func (s *Sketch) N() int { return s.n }

// AddEdge folds an update for edge {u, v} with multiplicity delta into
// both endpoint sketches with opposite signs: a batch of one.
func (s *Sketch) AddEdge(u, v int, delta int64) {
	s.AddBatch([]stream.Update{{U: u, V: v, Delta: int(delta)}})
}

// logUpdate appends one update to the fold window. If the window
// outgrows its budget the log resets and logGen advances: cached
// merged samplers fall back to a full re-merge at their next dirty
// query instead of folding an unbounded backlog.
func (s *Sketch) logUpdate(key uint64, a, b int, delta int64) {
	if len(s.log) >= 4*s.n+1024 {
		s.log = s.log[:0]
		s.logGen++
	}
	s.log = append(s.log, logUpd{key: key, a: int32(a), b: int32(b), delta: delta})
}

// AddUpdate folds a stream update.
func (s *Sketch) AddUpdate(u stream.Update) {
	s.AddBatch([]stream.Update{u})
}

// ingestChunk is the most updates AddBatch routes before it sweeps: one
// default replay batch, comparable to n at the sizes where ingest cost
// matters. A sketch on fewer than ingestChunk/4 vertices sweeps every
// 4n updates instead — eight incidences per vertex already amortize
// the strip loads — which keeps the routing scratch (about 32 bytes per
// update and round) under a third of the level-0 arena it serves.
const ingestChunk = stream.DefaultBatchSize

// ingestScratch is the working memory of one AddBatch call: the routed
// chunk and the vertex-sorted list of its endpoint incidences, each
// packed as vertex<<32 | index<<1 | side.
type ingestScratch struct {
	routes sketch.L0Routes
	inc    []uint64
}

// scratchFree shares ingest scratch across sketches: AddBatch holds one
// only for the duration of a call, so the k sketches of a certificate,
// an MSF's classes and the shards of a parallel build take turns on a
// few buffers instead of owning one each. It is a plain free list and
// not a sync.Pool: a pool is emptied by every collection (and at random
// under the race detector), and re-making an 8 MB scratch per GC cycle
// costs more than keeping one per concurrent ingester. A parked scratch
// still points at the families it last routed through.
var scratchFree struct {
	sync.Mutex
	list []*ingestScratch
}

// scratchKeep bounds the free list: more ingesters than processors can
// be inside AddBatch at once, but their extra buffers are not kept.
var scratchKeep = runtime.GOMAXPROCS(0)

func getScratch() *ingestScratch {
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if k := len(scratchFree.list); k > 0 {
		sc := scratchFree.list[k-1]
		scratchFree.list = scratchFree.list[:k-1]
		return sc
	}
	return new(ingestScratch)
}

func putScratch(sc *ingestScratch) {
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if len(scratchFree.list) < scratchKeep {
		scratchFree.list = append(scratchFree.list, sc)
	}
}

// AddBatch folds a batch of stream updates. The sketch is linear, so
// the updates of a batch commute, and instead of replaying them in
// stream order — two random vertices' sampler strips per update —
// AddBatch (1) routes every update once per round into a packed buffer,
// (2) sorts the batch's endpoint incidences by vertex, and (3) sweeps
// them in that order, so a vertex's strip and its tails are loaded once
// per batch and the grid is walked in address order. The state is
// bit-identical to the per-update fold: cells are commutative field
// additions, a sampler's generation counts the updates that reached it,
// and a tail's length is the highest level seen. Batches longer than
// ingestChunk are processed in chunks.
func (s *Sketch) AddBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	sc := getScratch() // empty: sweep leaves it so
	chunk := min(len(batch), ingestChunk, 4*s.n)
	sc.routes.Reset(s.fam, chunk)
	if cap(sc.inc) < 2*chunk {
		sc.inc = make([]uint64, 0, 2*chunk)
	}
	for _, u := range batch {
		if u.U == u.V || u.Delta == 0 {
			continue
		}
		a, b := u.U, u.V
		if a > b {
			a, b = b, a
		}
		key := stream.PairKey(a, b, s.n)
		if s.caching {
			s.logUpdate(key, a, b, int64(u.Delta))
		}
		if !sc.routes.Route(key, int64(u.Delta)) {
			s.sweep(sc)
			sc.routes.Route(key, int64(u.Delta))
		}
		i := uint64(sc.routes.Len()-1) << 1
		sc.inc = append(sc.inc, uint64(a)<<32|i, uint64(b)<<32|i|1)
	}
	s.sweep(sc)
	putScratch(sc)
}

// sweep applies the routed chunk in vertex order — endpoint a of an
// update takes +delta, endpoint b (side 1) takes -delta — and empties
// the scratch for the next chunk.
func (s *Sketch) sweep(sc *ingestScratch) {
	slices.Sort(sc.inc)
	for _, w := range sc.inc {
		v := int(w >> 32)
		sc.routes.Apply(s.samp[v*s.rounds:(v+1)*s.rounds], int(uint32(w)>>1), w&1 == 1)
	}
	sc.inc = sc.inc[:0]
	sc.routes.Clear()
}

// SubtractEdges removes an explicit edge set from the sketch — the
// linear operation Algorithm 3 uses to form G' = G − E_low after the
// stream has ended.
func (s *Sketch) SubtractEdges(edges []graph.Edge) {
	batch := make([]stream.Update, len(edges))
	for i, e := range edges {
		batch[i] = stream.Update{U: e.U, V: e.V, Delta: -1}
	}
	s.AddBatch(batch)
}

// SpanningForest extracts a spanning forest of the sketched graph. If
// groups is non-nil, each group of vertices is first collapsed into a
// supernode (clusters T_u of Algorithm 3); vertices absent from every
// group stay singletons. The returned edges are original graph edges
// whose endpoints lie in different (super)components, forming a forest
// over the contraction.
func (s *Sketch) SpanningForest(groups [][]int) ([]graph.Edge, error) {
	return s.SpanningForestOpts(groups, parallel.Default())
}

// SpanningForestParallel is SpanningForest with each Borůvka round's
// per-component sampler merges and L0 decodes fanned across `workers`
// goroutines. The extracted forest is bit-identical to SpanningForest:
// component results are placed by sorted root index and the unions are
// applied serially in that order, exactly the serial schedule.
func (s *Sketch) SpanningForestParallel(groups [][]int, workers int) ([]graph.Edge, error) {
	return s.SpanningForestOpts(groups, parallel.Default().WithWorkers(workers))
}

// SpanningForestOpts is the policy-driven forest extraction behind
// SpanningForest / SpanningForestParallel. Within each round the
// per-component work (merge the component's samplers, draw one
// boundary edge) touches disjoint state, so it fans across the
// policy's workers with one reusable scratch sampler per worker;
// everything order-sensitive — the round barrier, the union
// application, membership maintenance — stays serial.
func (s *Sketch) SpanningForestOpts(groups [][]int, p *parallel.Policy) ([]graph.Edge, error) {
	uf := graph.NewUnionFind(s.n)
	for gi, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		for _, v := range grp {
			if v < 0 || v >= s.n {
				return nil, fmt.Errorf("agm: group %d contains out-of-range vertex %d", gi, v)
			}
			uf.Union(grp[0], v)
		}
	}

	p = p.DecodePolicy()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("agm: %w", err)
	}

	// Component membership, maintained incrementally: built once from
	// the union-find (each component's members ascending), then merged
	// pairwise as unions happen — instead of a fresh O(n) map rebuild
	// per round. Sorted-merge keeps every list ascending, matching the
	// 0..n-1 scan the per-round rebuild used to produce.
	members := map[int][]int{}
	for v := 0; v < s.n; v++ {
		root := uf.Find(v)
		members[root] = append(members[root], v)
	}

	// Roots in ascending order (map iteration order would make the
	// union order — and so the forest — nondeterministic), sorted once:
	// a union's surviving root is one of the two merged roots, so the
	// root set only shrinks and each round filters the previous list in
	// place instead of re-collecting and re-sorting.
	roots := make([]int, 0, len(members))
	for root := range members {
		roots = append(roots, root)
	}
	sort.Ints(roots)

	scratch := make([]*sketch.L0Sampler, p.Workers())
	hints := make([]sketch.L0Hint, p.Workers())
	// Per-component pick of the current round, indexed by sorted-root
	// position so the serial union order below is independent of
	// scheduling.
	type found struct {
		a, b int
		ok   bool
	}
	// Per-round scratch, sized once to the initial component count and
	// resliced as components merge away.
	picks := make([]found, len(roots))
	genSums := make([]uint64, len(roots))
	dirty := make([]int, 0, len(roots))
	var created []*mergeEntry
	if s.caching {
		created = make([]*mergeEntry, len(roots))
		if s.picks == nil {
			s.picks = make([][]pickEntry, s.rounds)
			s.merges = make([][]*mergeEntry, s.rounds)
		}
	}

	var forest []graph.Edge
	for r := 0; r < s.rounds; r++ {
		if uf.Sets() == 1 {
			break
		}
		if r > 0 {
			// Drop roots merged away last round; survivors keep order.
			k := 0
			for _, root := range roots {
				if _, ok := members[root]; ok {
					roots[k] = root
					k++
				}
			}
			roots = roots[:k]
		}
		var sp obs.Span
		if tr := p.Tracer(); tr != nil {
			sp = tr.Span(fmt.Sprintf("agm/round%02d", r))
		}
		hits0, misses0 := s.cacheHits, s.cacheMisses
		picks = picks[:len(roots)]
		genSums = genSums[:len(roots)]
		dirty = dirty[:0]
		// The workers only read samplers and the frozen membership
		// lists; lazy power tables are materialized up front (Warm)
		// because decoding shares them across the whole round.
		s.fam[r].Warm()
		// Cache pass (serial, cheap): a component whose member list and
		// sampler generation sum match the previous extraction decodes
		// to the same pick; only the dirty subset fans out to workers.
		if s.caching {
			if s.picks[r] == nil {
				s.picks[r] = make([]pickEntry, s.n)
				s.merges[r] = make([]*mergeEntry, s.n)
			}
			for i, root := range roots {
				m := members[root]
				genSums[i] = s.genSumOf(r, m)
				if e := &s.picks[r][root]; e.members != nil && e.genSum == genSums[i] && intsEqual(e.members, m) {
					s.cacheHits++
					picks[i] = found{a: e.a, b: e.b, ok: e.ok}
					// The generation match proves the member samplers —
					// and so their cached sum — are untouched since the
					// last sync: re-stamp the merged sampler to the
					// current fold window so it stays foldable.
					if me := s.merges[r][m[0]]; me != nil &&
						me.genSum == genSums[i] && intsEqual(me.members, m) {
						me.epoch = s.epoch
						me.logGen = s.logGen
						me.logPos = len(s.log)
					}
					continue
				}
				s.cacheMisses++
				dirty = append(dirty, i)
			}
		} else {
			for i := range roots {
				dirty = append(dirty, i)
			}
		}
		// New merged-sampler entries are collected per dirty index and
		// inserted serially after the fan-out: workers only read the
		// merges table (and mutate entries of their own slot, which no
		// other worker shares — dirty indices are disjoint components).
		err := parallel.ForEachWorkerSubset(p, dirty, func(w, i int) error {
			picks[i] = found{}
			if s.caching {
				created[i] = nil
			}
			m := members[roots[i]]
			if len(m) == 1 {
				// A singleton's merged sampler IS its vertex sampler:
				// decode it in place (Sample is read-only).
				if key, _, ok := s.at(r, m[0]).Sample(); ok {
					a, b := stream.DecodePairKey(key, s.n)
					picks[i] = found{a: a, b: b, ok: true}
				}
				return nil
			}
			if s.caching {
				// Fold path: refresh the cached merged sampler from the
				// update log and the membership delta instead of
				// re-merging every member sampler.
				if me := s.refreshCached(r, m, genSums[i], &hints[w]); me != nil {
					if me.pickKnown {
						picks[i] = found{a: me.pa, b: me.pb, ok: me.pok}
						return nil
					}
					if key, _, ok := me.samp.Sample(); ok {
						a, b := stream.DecodePairKey(key, s.n)
						picks[i] = found{a: a, b: b, ok: true}
					}
					me.pa, me.pb, me.pok = picks[i].a, picks[i].b, picks[i].ok
					me.pickKnown = true
					return nil
				}
			}
			sc := scratch[w]
			if sc == nil {
				sc = &sketch.L0Sampler{}
				scratch[w] = sc
			}
			if !(s.caching && s.composeCover(r, m, &hints[w], sc)) {
				sc.SetTo(s.at(r, m[0]))
				for _, v := range m[1:] {
					if err := sc.Merge(s.at(r, v)); err != nil {
						return fmt.Errorf("agm: merge: %w", err)
					}
				}
			}
			if key, _, ok := sc.Sample(); ok {
				a, b := stream.DecodePairKey(key, s.n)
				picks[i] = found{a: a, b: b, ok: true}
			}
			if s.caching && len(m) >= mergeCacheMinMembers {
				pk := picks[i]
				if me := s.merges[r][m[0]]; me != nil {
					me.samp.SetTo(sc)
					me.members = m
					me.genSum = genSums[i]
					me.epoch = s.epoch
					me.logGen = s.logGen
					me.logPos = len(s.log)
					me.pa, me.pb, me.pok, me.pickKnown = pk.a, pk.b, pk.ok, true
				} else {
					fresh := &sketch.L0Sampler{}
					fresh.SetTo(sc)
					created[i] = &mergeEntry{
						members: m, genSum: genSums[i],
						epoch: s.epoch, logGen: s.logGen, logPos: len(s.log),
						samp: fresh,
						pa:   pk.a, pb: pk.b, pok: pk.ok, pickKnown: true,
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if s.caching {
			for _, i := range dirty {
				if e := created[i]; e != nil {
					s.merges[r][e.members[0]] = e
				}
				root := roots[i]
				s.picks[r][root] = pickEntry{
					members: members[root],
					genSum:  genSums[i],
					a:       picks[i].a,
					b:       picks[i].b,
					ok:      picks[i].ok,
				}
			}
		}
		progress := false
		var sampled, unions int64
		for _, pk := range picks {
			if !pk.ok {
				continue
			}
			sampled++
			ra, rb := uf.Find(pk.a), uf.Find(pk.b)
			if ra == rb {
				continue
			}
			uf.Union(pk.a, pk.b)
			root := uf.Find(pk.a)
			merged := mergeSortedInts(members[ra], members[rb])
			delete(members, ra)
			delete(members, rb)
			members[root] = merged
			forest = append(forest, graph.Edge{U: pk.a, V: pk.b, W: 1}.Canon())
			progress = true
			unions++
		}
		sp.End(
			obs.A("components", int64(len(roots))),
			obs.A("dirty", int64(len(dirty))),
			obs.A("sampled", sampled),
			obs.A("sample_empty", int64(len(roots))-sampled),
			obs.A("merges", unions),
			obs.A("cache_hit", int64(s.cacheHits-hits0)),
			obs.A("cache_miss", int64(s.cacheMisses-misses0)))
		if !progress {
			break
		}
	}
	if s.caching {
		s.completeQueryWindow()
	}
	return forest, nil
}

// refreshCached serves a dirty component's merged sampler from the
// cache. Entries are keyed by the component's minimum member (stable
// when the component gains or loses a branch across queries, unlike
// the union-find root). The refresh folds the logged updates since the
// entry's sync into the cached sum, then reconciles the membership
// delta by merging gained members' current samplers and subtracting
// lost ones — every step an exact linear cell operation, so the result
// is bit-identical to re-merging the current member samplers from
// scratch. Returns nil when no entry is usable or the delta is big
// enough that the full re-merge is cheaper.
func (s *Sketch) refreshCached(r int, m []int, genSum uint64, h *sketch.L0Hint) *mergeEntry {
	me := s.merges[r][m[0]]
	if me == nil {
		return nil
	}
	if me.epoch != s.epoch || me.logGen != s.logGen {
		return nil
	}
	gained, lost := sortedDiff(m, me.members)
	if len(gained)+len(lost)+4 >= len(m) {
		return nil
	}
	applied := s.foldInto(me, r, me.members, h)
	if applied > 0 {
		me.pickKnown = false
	}
	bad := false
	for _, v := range gained {
		if me.samp.Merge(s.at(r, v)) != nil {
			bad = true
		}
	}
	for _, v := range lost {
		if me.samp.Sub(s.at(r, v)) != nil {
			bad = true
		}
	}
	if bad {
		// Unreachable with same-family samplers; invalidate the entry
		// rather than trusting a half-applied refresh.
		me.logGen = s.logGen - 1
		return nil
	}
	if len(gained)+len(lost) > 0 {
		me.pickKnown = false
	}
	me.members = m
	me.genSum = genSum
	me.logPos = len(s.log)
	return me
}

// composeCover assembles a dirty component's merged sampler from
// cached sub-component entries when no single entry is close enough
// for a delta refresh. After churn, Borůvka's merge cascade often
// reshuffles which components join in a round; the new component is
// then a union of previously cached components plus a few stragglers.
// Valid entries whose member lists lie wholly inside m (and don't
// overlap an already claimed chunk) cover disjoint chunks: refresh
// each chunk by folding the update log, merge the chunk sums, and top
// up the uncovered members from their vertex samplers — exact linear
// steps, bit-identical to the full re-merge. Returns false (sc
// untouched or safely overwritable) when too little of m is covered
// to beat the plain re-merge.
func (s *Sketch) composeCover(r int, m []int, h *sketch.L0Hint, sc *sketch.L0Sampler) bool {
	if len(m) < 2*mergeCacheMinMembers {
		return false
	}
	claimed := make([]bool, len(m))
	var covers []*mergeEntry
	covered := 0
	for idx, v := range m {
		if claimed[idx] {
			continue
		}
		me := s.merges[r][v]
		if me == nil || me.epoch != s.epoch || me.logGen != s.logGen {
			continue
		}
		// me.members[0] == v; verify the rest lie in m unclaimed.
		t := idx
		usable := true
		for _, x := range me.members {
			for t < len(m) && m[t] < x {
				t++
			}
			if t >= len(m) || m[t] != x || claimed[t] {
				usable = false
				break
			}
			t++
		}
		if !usable {
			continue
		}
		t = idx
		for _, x := range me.members {
			for m[t] < x {
				t++
			}
			claimed[t] = true
			t++
		}
		covers = append(covers, me)
		covered += len(me.members)
	}
	if covered-len(covers) < len(m)/4 {
		return false // the chunks save fewer merges than they cost to stitch
	}
	for _, me := range covers {
		if s.foldInto(me, r, me.members, h) > 0 {
			me.pickKnown = false
		}
		me.logPos = len(s.log)
		me.genSum = s.genSumOf(r, me.members)
	}
	sc.SetTo(covers[0].samp)
	for _, me := range covers[1:] {
		if sc.Merge(me.samp) != nil {
			return false
		}
	}
	for idx, v := range m {
		if !claimed[idx] && sc.Merge(s.at(r, v)) != nil {
			return false
		}
	}
	return true
}

// sortedDiff returns the elements of cur absent from old (gained) and
// of old absent from cur (lost); both inputs ascending.
func sortedDiff(cur, old []int) (gained, lost []int) {
	i, j := 0, 0
	for i < len(cur) && j < len(old) {
		switch {
		case cur[i] == old[j]:
			i++
			j++
		case cur[i] < old[j]:
			gained = append(gained, cur[i])
			i++
		default:
			lost = append(lost, old[j])
			j++
		}
	}
	gained = append(gained, cur[i:]...)
	lost = append(lost, old[j:]...)
	return gained, lost
}

// foldInto replays the logged update suffix since the entry's last
// sync into its merged sampler. An update on edge {a, b} (a < b)
// contributed +delta at the pair key to a's sampler and -delta to b's
// — so its contribution to the members' sum is +delta if a is a
// member, -delta if b is. Both or neither member means exact
// cancellation: skip. Cell updates are commutative, associative,
// exact field additions, so the folded sampler is bit-identical to a
// full re-merge of the current member samplers.
func (s *Sketch) foldInto(me *mergeEntry, r int, m []int, h *sketch.L0Hint) int {
	applied := 0
	for _, lu := range s.log[me.logPos:] {
		inA := containsSorted(m, int(lu.a))
		inB := containsSorted(m, int(lu.b))
		if inA == inB {
			continue
		}
		s.fam[r].Hint(lu.key, h)
		if inA {
			me.samp.AddHint(lu.key, lu.delta, h)
		} else {
			me.samp.AddHint(lu.key, -lu.delta, h)
		}
		applied++
	}
	return applied
}

// containsSorted reports whether ascending list m contains v.
func containsSorted(m []int, v int) bool {
	i := sort.SearchInts(m, v)
	return i < len(m) && m[i] == v
}

// completeQueryWindow runs after each cached extraction: entries
// synced to the current end of the log are re-stamped to position 0
// of the next window, then the log is cleared — so the fold backlog
// never spans more than one update batch for live handles that query
// after every Apply. Entries that missed two consecutive windows
// (their component vanished or shrank below the threshold) are swept
// periodically.
func (s *Sketch) completeQueryWindow() {
	cur := len(s.log)
	for _, row := range s.merges {
		for _, me := range row {
			if me != nil && me.logGen == s.logGen && me.logPos == cur {
				me.logGen = s.logGen + 1
				me.logPos = 0
			}
		}
	}
	s.logGen++
	s.log = s.log[:0]
	if s.logGen%32 == 0 {
		for _, row := range s.merges {
			for v, me := range row {
				if me != nil && me.logGen+2 < s.logGen {
					row[v] = nil
				}
			}
		}
	}
}

// mergeSortedInts merges two ascending duplicate-free lists into one.
func mergeSortedInts(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// SpaceWords returns the memory footprint in 64-bit words.
func (s *Sketch) SpaceWords() int {
	w := 2
	for i := range s.samp {
		w += s.samp[i].SpaceWords()
	}
	return w
}
