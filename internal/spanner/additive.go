package spanner

import (
	"fmt"
	"sort"

	"dynstream/internal/agm"
	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// AdditiveConfig parameterizes the single-pass O(n/d)-additive spanner
// of Theorem 3 (Algorithm 3).
type AdditiveConfig struct {
	// D is the space/accuracy knob: Õ(nd) space, n/d additive error.
	D int
	// Seed selects all randomness.
	Seed uint64
	// DegreeFactor scales the low-degree cutoff C·d·log n; default 1.
	DegreeFactor float64
	// CenterFactor scales the center sampling rate C/d; default 2.
	CenterFactor float64
	// UseF0Degree switches the degree test from an exact counter to the
	// paper's Theorem 9 distinct-elements sketch. The counter equals the
	// distinct degree whenever the stream describes a simple graph (any
	// multigraph multiplicities are counted with multiplicity); the F0
	// sketch is the faithful-but-larger choice for true multigraphs.
	UseF0Degree bool
}

func (c AdditiveConfig) withDefaults() AdditiveConfig {
	if c.D < 1 {
		c.D = 1
	}
	if c.DegreeFactor == 0 {
		c.DegreeFactor = 1
	}
	if c.CenterFactor == 0 {
		c.CenterFactor = 2
	}
	return c
}

// AdditiveResult is the output of the additive spanner construction.
type AdditiveResult struct {
	// Spanner is the output subgraph E_low ∪ F ∪ F'.
	Spanner *graph.Graph
	// SpaceWords is the sketch footprint in 64-bit words.
	SpaceWords int
	// Centers is the number of sampled cluster centers |C| (diagnostics).
	Centers int
	// LowDegree is the number of vertices classified low-degree.
	LowDegree int
}

// Additive is the single-pass streaming state of Algorithm 3.
type Additive struct {
	cfg       AdditiveConfig
	n         int
	log2n     int
	cutoff    float64 // low-degree threshold C·d·log n
	nbrBudget int     // nbr capacity, 2× the cutoff: all edges of a low-degree vertex

	inC    []bool // center sample at rate Θ(1/d)
	zLevel *hashing.Poly

	// The per-vertex sketches are created on first touch (nbrAt,
	// centerAt, f0At); a nil slot is the zero sketch. So memory follows
	// the vertices the stream reached, and a decoded state allocates
	// what its blob carries, not what its header promises.
	nbr     []*sketch.SketchB // S(u) = SKETCH_{Õ(d)}(N(u))
	centerS []*sketch.SketchB // A^r(u) = SKETCH_{O(log n)}(N(u) ∩ C ∩ Z_r), at u·(log2n+1)+r
	degree  []int64           // exact net degree counter
	degF0   []*sketch.F0      // optional Theorem 9 degree sketch
	forest  *agm.Sketch       // AGM sketches (Theorem 10)
	done    bool
	crew    parallel.Crew[*Additive, struct{}] // AddBatchOpts's vertex ranges

	// Decode caches (EnableDecodeCache), keyed by monotonic generation
	// counters: a hit provably reproduces the cold decode.
	caching  bool
	lowCache map[int]lowEntry // per-vertex neighborhood decode
	parCache map[int]parEntry // per-vertex center attachment

	// Cumulative decode-cache outcomes across both consult sites
	// (low-degree neighborhoods, center attachments) while caching is on.
	cacheHits   uint64
	cacheMisses uint64
}

// DecodeCacheStats reports the cumulative decode-cache hit and miss
// counts across the neighborhood/attachment caches and the embedded
// forest sketch's component cache. Counters are cumulative across
// queries and survive EnableDecodeCache(false).
func (a *Additive) DecodeCacheStats() (hits, misses uint64) {
	fh, fm := a.forest.DecodeCacheStats()
	return a.cacheHits + fh, a.cacheMisses + fm
}

// lowEntry caches one vertex's low-degree classification and decoded
// neighborhood under the generation of nbr[u] and the exact degree
// counter it was classified with.
type lowEntry struct {
	gen  uint64
	deg  int64
	low  bool
	nbrs []nbrItem // valid decoded neighbors, ascending
}

type nbrItem struct {
	v    int
	mult int64
}

// parEntry caches one vertex's star-forest attachment under the summed
// generation of its centerS row.
type parEntry struct {
	gens   uint64
	parent int // -1 if unattached
}

// NewAdditive creates the streaming state for a graph on n vertices.
func NewAdditive(n int, cfg AdditiveConfig) *Additive {
	a := newAdditive(n, cfg)
	a.forest = agm.New(hashing.Mix(a.cfg.Seed, 0x33), n, agm.Config{})
	return a
}

// newAdditive lays out everything but the forest sketch, which a
// decoder reads off the wire instead.
func newAdditive(n int, cfg AdditiveConfig) *Additive {
	cfg = cfg.withDefaults()
	log2n := log2(n)
	cutoff := cfg.cutoff(n)
	a := &Additive{
		cfg:       cfg,
		n:         n,
		log2n:     log2n,
		cutoff:    cutoff,
		nbrBudget: int(2*cutoff) + 4,
		inC:       make([]bool, n),
		zLevel:    hashing.NewPoly(hashing.Mix(cfg.Seed, 0x22), 8),
		nbr:       make([]*sketch.SketchB, n),
		centerS:   make([]*sketch.SketchB, n*(log2n+1)),
		degree:    make([]int64, n),
	}
	rate := cfg.CenterFactor / float64(cfg.D)
	hC := hashing.NewPoly(hashing.Mix(cfg.Seed, 0x44), 8)
	for u := 0; u < n; u++ {
		a.inC[u] = hC.Bernoulli(uint64(u), rate)
	}
	if cfg.UseF0Degree {
		a.degF0 = make([]*sketch.F0, n)
	}
	return a
}

// cutoff is the low-degree threshold C·d·log n on n vertices.
func (c AdditiveConfig) cutoff(n int) float64 {
	return c.DegreeFactor * float64(c.D) * float64(log2(n))
}

// nbrAt returns S(u), creating it on first touch.
func (a *Additive) nbrAt(u int) *sketch.SketchB {
	if a.nbr[u] == nil {
		a.nbr[u] = sketch.NewSketchB(hashing.Mix(a.cfg.Seed, 0x55, uint64(u)), a.nbrBudget)
	}
	return a.nbr[u]
}

// centers returns u's row of center sketches, A^0(u) … A^log2n(u).
func (a *Additive) centers(u int) []*sketch.SketchB {
	w := a.log2n + 1
	return a.centerS[u*w : (u+1)*w]
}

// centerAt returns centerS[i] = A^r(u), i = u·(log2n+1)+r, creating it
// on first touch.
func (a *Additive) centerAt(i int) *sketch.SketchB {
	if a.centerS[i] == nil {
		u, r := i/(a.log2n+1), i%(a.log2n+1)
		a.centerS[i] = sketch.NewSketchB(hashing.Mix(a.cfg.Seed, 0x66, uint64(u), uint64(r)), 8)
	}
	return a.centerS[i]
}

// f0At returns u's degree estimator, creating it on first touch.
func (a *Additive) f0At(u int) *sketch.F0 {
	if a.degF0[u] == nil {
		a.degF0[u] = sketch.NewF0(hashing.Mix(a.cfg.Seed, 0x77, uint64(u)), uint64(a.n))
	}
	return a.degF0[u]
}

// N returns the vertex count.
func (a *Additive) N() int { return a.n }

// EnableDecodeCache turns the per-vertex decode caches — neighborhood
// peels, center attachments, and the forest sketch's component pick
// cache — on or off. Off releases the caches. Cached and uncached
// extraction are bit-identical.
func (a *Additive) EnableDecodeCache(on bool) {
	a.caching = on
	a.forest.EnableDecodeCache(on)
	if !on {
		a.lowCache = nil
		a.parCache = nil
	}
}

// Update ingests one stream update.
func (a *Additive) Update(u stream.Update) error {
	return a.AddBatch([]stream.Update{u})
}

// AddBatch ingests a batch of updates on the calling goroutine:
// AddBatchOpts at one worker.
func (a *Additive) AddBatch(batch []stream.Update) error {
	return a.AddBatchOpts(batch, parallel.Default())
}

// AddBatchOpts ingests a batch of updates: the per-vertex sketches of
// both endpoints update by update, then the forest sketch takes the
// whole batch at once (agm.Sketch.AddBatchOpts). An update's half at
// endpoint u touches only u's sketches, so with w workers
// (parallel.BatchWorkers) part k takes the halves whose endpoint lies in
// the k-th of w equal vertex ranges, and no sketch is written by two
// goroutines.
func (a *Additive) AddBatchOpts(batch []stream.Update, p *parallel.Policy) error {
	if a.done {
		return fmt.Errorf("spanner: additive Update after Finish")
	}
	c := &a.crew
	c.Borrow(nil, parallel.BatchWorkers(p.Workers(), len(batch)))
	c.Chunk = batch
	c.Run(a, ingestHalves)
	c.Release(nil)
	a.forest.AddBatchOpts(batch, p)
	return nil
}

// ingestHalves folds the halves of the crew's chunk whose endpoint lies
// in the k-th of the crew's equal vertex ranges.
func ingestHalves(a *Additive, k int) {
	w := len(a.crew.Spans)
	lo, hi := k*a.n/w, (k+1)*a.n/w
	for _, u := range a.crew.Chunk {
		d := int64(u.Delta)
		if lo <= u.U && u.U < hi {
			a.ingestHalf(u.U, u.V, d)
		}
		if lo <= u.V && u.V < hi {
			a.ingestHalf(u.V, u.U, d)
		}
	}
}

// ingestHalf folds neighbor v into u's per-vertex sketches. A zero
// delta changes none of them, so it creates none.
func (a *Additive) ingestHalf(u, v int, d int64) {
	if d == 0 {
		return
	}
	a.nbrAt(u).Add(uint64(v), d)
	a.degree[u] += d
	if a.degF0 != nil {
		a.f0At(u).Add(uint64(v), d)
	}
	if a.inC[v] {
		lvl := a.zLevel.Level(uint64(v))
		if lvl > a.log2n {
			lvl = a.log2n
		}
		for r := 0; r <= lvl; r++ {
			a.centerAt(u*(a.log2n+1)+r).Add(uint64(v), d)
		}
	}
}

func (a *Additive) isLowDegree(u int) bool {
	if a.degF0 != nil {
		return !a.degF0[u].ExceedsThreshold(int(a.cutoff))
	}
	return float64(a.degree[u]) <= a.cutoff
}

// Finish runs the post-processing of Algorithm 3: recover E_low, build
// the star forest F around centers, subtract E_low from the AGM
// sketches, contract clusters, and extract the spanning forest F'.
func (a *Additive) Finish() (*AdditiveResult, error) {
	return a.FinishOpts(parallel.Default())
}

// FinishOpts is the policy-driven decode: the policy supplies
// cancellation and the tracer to the closing spanning-forest extraction
// over G' = G − E_low (see agm.SpanningForestOpts). Output identical to
// Finish.
func (a *Additive) FinishOpts(p *parallel.Policy) (*AdditiveResult, error) {
	if a.done {
		return nil, fmt.Errorf("spanner: additive Finish called twice")
	}
	res, err := a.ExtractOpts(p)
	if err != nil {
		return nil, err
	}
	a.done = true
	return res, nil
}

// ExtractOpts is the repeatable form of FinishOpts: it leaves the
// state open for further updates (live handles interleave Update and
// ExtractOpts), keeping the forest sketch consistent across queries by
// delta-subtracting E_low (agm.Sketch.SubtractTo) instead of
// destructively folding it out. With the decode cache enabled, a vertex
// whose sketches are unchanged since the previous query reuses its
// cached neighborhood peel and center attachment.
func (a *Additive) ExtractOpts(p *parallel.Policy) (*AdditiveResult, error) {
	if a.done {
		return nil, fmt.Errorf("spanner: additive extract after Finish")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	n := a.n
	out := graph.New(n)
	res := &AdditiveResult{}

	// (1) Low-degree vertices: recover all incident edges. The decode
	// and classification are cacheable per vertex: both depend only on
	// nbr[u] (generation-tracked) and the degree counter.
	elowSeen := map[[2]int]int64{} // canonical edge -> multiplicity
	lowDeg := make([]bool, n)
	for u := 0; u < n; u++ {
		var items []nbrItem
		low := false
		gen := a.nbr[u].Gen()
		deg := a.degree[u]
		// The F0 degree sketch has no generation counter; skip the
		// cache for that (rarely used) configuration.
		cacheable := a.caching && a.degF0 == nil
		if ent, ok := a.lowCache[u]; cacheable && ok && ent.gen == gen && ent.deg == deg {
			a.cacheHits++
			low, items = ent.low, ent.nbrs
		} else {
			if cacheable {
				a.cacheMisses++
			}
			if a.isLowDegree(u) {
				raw, ok := a.nbr[u].Decode()
				if ok {
					// Deterministic order: ascending neighbor id.
					low = true
					for key, mult := range raw {
						v := int(key)
						if v < 0 || v >= n || v == u || mult <= 0 {
							continue
						}
						items = append(items, nbrItem{v: v, mult: mult})
					}
					sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
				}
				// Decode failure (1/poly probability, or a multigraph
				// whose multiplicities exceed the counter-based
				// estimate): treat the vertex as high-degree rather
				// than emit garbage.
			}
			if cacheable {
				if a.lowCache == nil {
					a.lowCache = map[int]lowEntry{}
				}
				a.lowCache[u] = lowEntry{gen: gen, deg: deg, low: low, nbrs: items}
			}
		}
		if !low {
			continue
		}
		lowDeg[u] = true
		res.LowDegree++
		for _, it := range items {
			out.AddUnitEdge(u, it.v)
			c := [2]int{u, it.v}
			if c[0] > c[1] {
				c[0], c[1] = c[1], c[0]
			}
			if _, dup := elowSeen[c]; !dup {
				elowSeen[c] = it.mult
			}
		}
	}

	// (2) High-degree vertices: attach to a center neighbor, forming
	// the star forest F. The attachment depends only on the centerS
	// row, so it caches under the row's summed generation.
	parent := make([]int, n)
	for u := range parent {
		parent[u] = -1
	}
	for u := 0; u < n; u++ {
		if lowDeg[u] || a.inC[u] {
			continue // centers root their own clusters
		}
		var gens uint64
		for _, s := range a.centers(u) {
			gens += s.Gen()
		}
		if ent, ok := a.parCache[u]; a.caching && ok && ent.gens == gens {
			a.cacheHits++
			parent[u] = ent.parent
		} else {
			if a.caching {
				a.cacheMisses++
			}
			for r := a.log2n; r >= 0 && parent[u] == -1; r-- {
				items, ok := a.centers(u)[r].Decode()
				if !ok || len(items) == 0 {
					continue
				}
				// Deterministic choice: smallest valid center id.
				keys := make([]uint64, 0, len(items))
				for key := range items {
					keys = append(keys, key)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				for _, key := range keys {
					w := int(key)
					if w < 0 || w >= n || w == u || items[key] <= 0 || !a.inC[w] {
						continue
					}
					parent[u] = w
					break
				}
			}
			if a.caching {
				if a.parCache == nil {
					a.parCache = map[int]parEntry{}
				}
				a.parCache[u] = parEntry{gens: gens, parent: parent[u]}
			}
		}
		if parent[u] != -1 {
			out.AddUnitEdge(u, parent[u])
		}
	}

	// (3) G' = G − E_low; contract clusters T_c = {c} ∪ followers.
	// Delta-subtraction: only the E_low difference against the previous
	// query touches the forest samplers, so unchanged components keep
	// their pick caches hot.
	a.forest.SubtractTo(elowSeen)
	groups := map[int][]int{}
	for u := 0; u < n; u++ {
		if a.inC[u] {
			groups[u] = append(groups[u], u)
			res.Centers++
		}
	}
	for u := 0; u < n; u++ {
		if p := parent[u]; p != -1 {
			groups[p] = append(groups[p], u)
		}
	}
	// Deterministic group order: ascending center id (groups exist only
	// for centers).
	groupList := make([][]int, 0, len(groups))
	for u := 0; u < n; u++ {
		if g, ok := groups[u]; ok {
			groupList = append(groupList, g)
		}
	}
	fprime, err := a.forest.SpanningForestOpts(groupList, p)
	if err != nil {
		return nil, fmt.Errorf("spanner: additive forest: %w", err)
	}
	for _, e := range fprime {
		out.AddUnitEdge(e.U, e.V)
	}

	res.Spanner = out
	res.SpaceWords = a.SpaceWords()
	return res, nil
}

// SpaceWords returns the sketch footprint in 64-bit words: every
// per-vertex sketch counts, created or not.
func (a *Additive) SpaceWords() int {
	w := len(a.degree) + a.n*sketch.SketchBWords(a.nbrBudget, sketch.SketchConfig{}) +
		len(a.centerS)*sketch.SketchBWords(8, sketch.SketchConfig{})
	if a.degF0 != nil {
		w += a.n * sketch.NewF0(0, uint64(a.n)).SpaceWords() // the footprint depends on the universe only
	}
	return w + a.forest.SpaceWords()
}

// BuildAdditive runs the single-pass additive spanner over a stream
// (Theorem 3): the output H satisfies, for every pair u, v,
// d_G(u,v) <= d_H(u,v) <= d_G(u,v) + O(n/d), using Õ(nd) space.
func BuildAdditive(st stream.Stream, cfg AdditiveConfig) (*AdditiveResult, error) {
	a := NewAdditive(st.N(), cfg)
	if err := stream.ReplayBatches(st, 0, a.AddBatch); err != nil {
		return nil, fmt.Errorf("spanner: additive pass: %w", err)
	}
	return a.Finish()
}
