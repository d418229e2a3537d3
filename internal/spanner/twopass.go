// Package spanner implements the paper's core contributions:
//
//   - BuildTwoPass: the two-pass 2^k-multiplicative spanner of Theorem 1
//     (Algorithms 1 and 2, Section 3) in Õ(n^{1+1/k}) space.
//   - BuildAdditive: the single-pass O(n/d)-additive spanner of
//     Theorem 3 (Algorithm 3, Section 4) in Õ(nd) space.
//
// Both consume a dynamic stream of edge insertions and deletions and
// never materialize the graph; every bit of state is a linear sketch
// plus the O(n)-word cluster bookkeeping the paper allows.
package spanner

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// Config parameterizes the two-pass spanner. The paper's constants
// ("C log n" budgets) are exposed as knobs so experiments can trade
// failure probability against space.
type Config struct {
	// K is the stretch exponent: the output is a 2^K-spanner using
	// Õ(n^{1+1/K}) space. K >= 1.
	K int
	// Seed selects all randomness (sample sets and sketches).
	Seed uint64
	// Budget is the sparse-recovery budget B of each first-pass sketch
	// (the paper's O(log n)); default max(8, 2·ceil(log2 n)).
	Budget int
	// TableFactor scales the second-pass hash tables relative to the
	// Claim 11 bound n^{(i+1)/k}·log2(n); default 1.
	TableFactor float64
	// Levels overrides the number of edge-subsampling levels E_j
	// (default 2·ceil(log2 n), the paper's log n²). Fewer levels still
	// give a valid spanner (TestLevelsGuarantees).
	Levels int
	// CollectAugmented records every edge any decoded sketch revealed —
	// the Ω(R) sets of Claims 16/18/20 needed by the sparsifier.
	CollectAugmented bool
}

func (c Config) withDefaults(n int) Config {
	if c.K < 1 {
		c.K = 1
	}
	if c.Budget == 0 {
		c.Budget = 2 * log2(n)
		if c.Budget < 8 {
			c.Budget = 8
		}
	}
	if c.TableFactor == 0 {
		c.TableFactor = 1
	}
	return c
}

// Result is the output of a spanner construction.
type Result struct {
	// Spanner is the subgraph H with the stretch guarantee.
	Spanner *graph.Graph
	// Augmented additionally contains every edge of G whose adjacency-
	// matrix location the algorithm's execution path depended on
	// (Claim 20). Nil unless Config.CollectAugmented.
	Augmented *graph.Graph
	// SpaceWords is the sketch memory footprint in 64-bit words (the
	// quantity the paper's space bounds describe; cluster bookkeeping
	// is O(n) words on top).
	SpaceWords int
	// Terminals is the number of terminal cluster copies (diagnostics).
	Terminals int
	// Stats carries construction diagnostics for the experiments.
	Stats Stats
}

// Stats summarizes the cluster structure the first pass built — the
// quantities Claims 11 and Lemma 12 reason about.
type Stats struct {
	// CopiesPerLevel[i] is |C_i| (cluster copies at level i).
	CopiesPerLevel []int
	// TerminalsPerLevel[i] counts terminal copies at level i.
	TerminalsPerLevel []int
	// MaxClusterSize is the largest terminal cluster's vertex count.
	MaxClusterSize int
	// WitnessEdges counts first-pass (non-terminal) spanner edges.
	WitnessEdges int
	// RecoveredEdges counts second-pass neighborhood-recovery edges.
	RecoveredEdges int
}

// copyNode is one node of the cluster forest F. The forest lives on
// V × {0..k-1} copies (paper, footnote 2): vertex u has a copy at every
// level i with u ∈ C_i.
type copyNode struct {
	u        int
	level    int
	parent   int    // index into copies; -1 if root
	witness  [2]int // σ(edge to parent): (a, b), a in this tree, b the parent vertex
	terminal bool
	members  []int // connectivity members: {u} ∪ children's members, deduped
}

// TwoPass is the streaming state of Algorithms 1–2. Use BuildTwoPass
// for the common case; the explicit-passes API (NewTwoPass, Pass1Update,
// EndPass1, Pass2Update, Finish) exists for callers that drive streams
// themselves (e.g. the distributed example).
type TwoPass struct {
	cfg   Config
	n     int
	k     int
	jMax  int // edge subsampling levels 0..jMax
	yMax  int // vertex subsampling levels 0..yMax
	log2n int

	inC       [][]bool // inC[r][u]: u ∈ C_r for r ≥ 1 (C_0 = V has no table)
	edgeLevel *hashing.Poly
	yLevel    *hashing.Poly

	// vertexSk[u][r-1][j] = SKETCH^{r,j}(({u} × C_r) ∩ E ∩ E_j),
	// r ∈ [1, k-1]. Keys are directed pairs u*n + c. An instance is
	// created from fams[r-1][j] by the first update routed to it, and
	// the family itself by the first instance; nil is the zero sketch
	// everywhere it is read.
	vertexSk [][][]*sketch.SketchB
	fams     [][]*sketch.SketchBFamily

	copies      []copyNode
	terminalsOf [][]int // per vertex: sorted terminal copy indices containing it

	// tables[t][j] is H^t_j for terminal copy index t; the row of a
	// non-terminal copy is nil. The rows are cut from one slab of slots
	// (allocTables), and a slot stays nil — the zero table — until a
	// pass-2 sweep, a merge or a decode first writes it through table.
	tables [][]*sketch.KeyedEdgeSketch
	crew   parallel.Crew[*TwoPass, pass2Part] // pass-2 ingest bookkeeping (pass2.go)

	augmented map[[2]int]bool
	phase     int // 0 = pass 1, 1 = pass 2, 2 = finished

	// Live-handle state (see StartLive / QueryLive in live.go). A live
	// state keeps pass 1 open forever: queries re-run the offline halves
	// of Algorithms 1–2 on demand, reusing cached per-center attachments
	// and per-terminal recoveries whose inputs are unchanged. A state
	// caches iff it is live (liveSrc != nil); a one-shot build decodes
	// once and keeps nothing.
	liveSrc    stream.Stream    // base stream (pass-2 replays)
	liveLog    []stream.Update  // updates applied after StartLive
	liveSynced int              // liveLog prefix folded into tables
	attach     []attachEntry    // per-center attachment cache, by copy index
	recCache   map[int]recEntry // per-terminal recovery cache

	// Cumulative decode-cache outcomes across both cache consult sites
	// (per-center attachments, per-terminal recoveries) of a live state.
	// Read by DecodeCacheStats for operational visibility.
	cacheHits   uint64
	cacheMisses uint64
}

// DecodeCacheStats reports the cumulative decode-cache hit and miss
// counts across this state's attachment and recovery caches, cumulative
// across queries.
func (tp *TwoPass) DecodeCacheStats() (hits, misses uint64) {
	return tp.cacheHits, tp.cacheMisses
}

// NewTwoPass creates the streaming state for a graph on n vertices.
func NewTwoPass(n int, cfg Config) *TwoPass {
	return newTwoPass(n, cfg.withDefaults(n), true)
}

// log2 is ⌈log2(n+1)⌉, at least 1: the paper's log n.
func log2(n int) int { return max(1, int(math.Ceil(math.Log2(float64(n+1))))) }

// levels is the number of edge-subsampling levels E_0..E_jMax.
func (c Config) levels(log2n int) int {
	if c.Levels > 0 {
		return c.Levels
	}
	return 2*log2n + 1
}

// newTwoPass creates the state for a resolved configuration; sketches
// lays out the pass-1 vertex-sketch slots, which a ForkPass2 worker —
// and its decoded copy — does not own.
func newTwoPass(n int, cfg Config, sketches bool) *TwoPass {
	k, log2n := cfg.K, log2(n)
	tp := &TwoPass{
		cfg:       cfg,
		n:         n,
		k:         k,
		jMax:      cfg.levels(log2n) - 1,
		yMax:      log2n,
		log2n:     log2n,
		edgeLevel: hashing.NewPoly(hashing.Mix(cfg.Seed, 0xe), 8),
		yLevel:    hashing.NewPoly(hashing.Mix(cfg.Seed, 0x11), 8),
		augmented: map[[2]int]bool{},
	}
	// Sample the center hierarchy C_0 = V ⊇ C_1 ⊇ ... at rate n^{-r/k}.
	tp.inC = make([][]bool, k)
	for r := 1; r < k; r++ {
		tp.inC[r] = make([]bool, n)
		rate := math.Pow(float64(n), -float64(r)/float64(k))
		h := hashing.NewPoly(hashing.Mix(cfg.Seed, 0xc, uint64(r)), 8)
		for u := 0; u < n; u++ {
			tp.inC[r][u] = h.Bernoulli(uint64(u), rate)
		}
	}
	// First-pass sketches, shared hash functions per (r, j) so that
	// summing over cluster members is a sketch of the union. The seed
	// depends only on (r, j), so one SketchBFamily per pair supplies
	// all n per-vertex instances — hashes and power tables are derived
	// at most k·jMax times, not n·k·jMax times — and only the slots are
	// laid out here: an edge at geometric level ℓ touches rows j ≤ ℓ of
	// its two endpoints, so most of the n·(k−1)·(jMax+1) instances, and
	// the families of levels no edge reaches, are never needed.
	if k > 1 && sketches {
		tp.fams = make([][]*sketch.SketchBFamily, k-1)
		for r := range tp.fams {
			tp.fams[r] = make([]*sketch.SketchBFamily, tp.jMax+1)
		}
		slots := make([]*sketch.SketchB, n*(k-1)*(tp.jMax+1))
		heads := make([][]*sketch.SketchB, n*(k-1))
		tp.vertexSk = make([][][]*sketch.SketchB, n)
		for u := 0; u < n; u++ {
			tp.vertexSk[u], heads = heads[:k-1:k-1], heads[k-1:]
			for r := 1; r < k; r++ {
				tp.vertexSk[u][r-1], slots = slots[:tp.jMax+1:tp.jMax+1], slots[tp.jMax+1:]
			}
		}
	}
	return tp
}

// sk returns vertexSk[u][r-1][j], creating it on first touch.
func (tp *TwoPass) sk(u, r, j int) *sketch.SketchB {
	s := tp.vertexSk[u][r-1][j]
	if s == nil {
		s = tp.fam(r, j).New()
		tp.vertexSk[u][r-1][j] = s
	}
	return s
}

// fam returns the shared shape of the (r, j) vertex sketches, deriving
// it on first use.
func (tp *TwoPass) fam(r, j int) *sketch.SketchBFamily {
	f := &tp.fams[r-1][j]
	if *f == nil {
		*f = sketch.NewSketchBFamily(hashing.Mix(tp.cfg.Seed, 0x5e, uint64(r), uint64(j)),
			tp.cfg.Budget, sketch.SketchConfig{})
	}
	return *f
}

// N returns the vertex count.
func (tp *TwoPass) N() int { return tp.n }

// Phase reports the build phase: 0 while pass 1 is open, 1 after
// EndPass1 (pass 2 open), 2 after Finish. Remote workers use it to
// route ingest on a state decoded from the wire.
func (tp *TwoPass) Phase() int { return tp.phase }

// pairLevel is the geometric level of the unordered pair {a, b}: the
// pair belongs to E_j iff pairLevel >= j.
func (tp *TwoPass) pairLevel(a, b int) int {
	return tp.edgeLevel.Level(stream.PairKey(a, b, tp.n))
}

// Pass1Update ingests one stream update during the first pass.
func (tp *TwoPass) Pass1Update(u stream.Update) error {
	if tp.phase != 0 {
		return fmt.Errorf("spanner: Pass1Update called in phase %d", tp.phase)
	}
	if tp.k == 1 || u.Delta == 0 {
		return nil // no clustering pass needed for k=1; a zero update touches nothing
	}
	lvl := tp.pairLevel(u.U, u.V)
	maxJ := lvl
	if maxJ > tp.jMax {
		maxJ = tp.jMax
	}
	d := int64(u.Delta)
	keyUV := uint64(u.U)*uint64(tp.n) + uint64(u.V)
	keyVU := uint64(u.V)*uint64(tp.n) + uint64(u.U)
	for r := 1; r < tp.k; r++ {
		// Edge {a, b} appears in a's sketch row r iff b ∈ C_r, under
		// the directed key a*n+b, and vice versa. The two endpoint
		// sketches of a given (r, j) share one family table, so when
		// both endpoints are live their fingerprint powers come from a
		// single shared window traversal (Fkey2).
		uLive, vLive := tp.inC[r][u.V], tp.inC[r][u.U]
		switch {
		case uLive && vLive:
			for j := 0; j <= maxJ; j++ {
				su, sv := tp.sk(u.U, r, j), tp.sk(u.V, r, j)
				fu, fv := su.Fkey2(keyUV, keyVU)
				su.AddFkey(keyUV, d, fu)
				sv.AddFkey(keyVU, d, fv)
			}
		case uLive:
			for j := 0; j <= maxJ; j++ {
				tp.sk(u.U, r, j).Add(keyUV, d)
			}
		case vLive:
			for j := 0; j <= maxJ; j++ {
				tp.sk(u.V, r, j).Add(keyVU, d)
			}
		}
	}
	return nil
}

// Pass1AddBatch ingests a batch of first-pass updates; bit-identical
// to calling Pass1Update per element.
func (tp *TwoPass) Pass1AddBatch(batch []stream.Update) error {
	for _, u := range batch {
		if err := tp.Pass1Update(u); err != nil {
			return err
		}
	}
	return nil
}

// Pass1AddBatchOpts is the local engine's pass-1 ingest: Pass1AddBatch
// on the calling goroutine at any worker count. Pass 1 is ≈ 5 % of a
// spanner build, and its per-update loop has no range-cut kernel yet
// for the policy's workers to share (ROADMAP 5(a)); the grid's cells
// and pass 2 are where a local build fans out.
func (tp *TwoPass) Pass1AddBatchOpts(batch []stream.Update, _ *parallel.Policy) error {
	return tp.Pass1AddBatch(batch)
}

// EndPass1 runs the offline cluster construction (Algorithm 1, lines
// 8–20): for each level i and each u ∈ C_i, the summed sketch over the
// current cluster is decoded from the sparsest subsampling level down,
// yielding a parent in C_{i+1} and a witness edge, or terminal status.
func (tp *TwoPass) EndPass1() error {
	return tp.EndPass1Opts(parallel.Default())
}

// EndPass1Opts is the policy-driven cluster construction: the policy
// supplies cancellation and the tracer (see clusterize).
func (tp *TwoPass) EndPass1Opts(p *parallel.Policy) error {
	if tp.phase != 0 {
		return fmt.Errorf("spanner: EndPass1 called in phase %d", tp.phase)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("spanner: %w", err)
	}
	cr, err := tp.clusterize(p)
	if err != nil {
		return err
	}
	tp.copies = cr.copies
	tp.terminalsOf = cr.terminalsOf
	for _, e := range cr.augmented {
		tp.augmented[e] = true
	}
	tp.tables = tp.allocTables()
	tp.phase = 1
	return nil
}

// clusterResult is one run of the offline cluster construction
// (Algorithm 1, lines 8–20). clusterize never mutates tp.copies /
// tp.terminalsOf, so live states can re-run it per query and compare
// the new forest against the previous run's.
type clusterResult struct {
	copies      []copyNode
	terminalsOf [][]int
	augmented   [][2]int // every edge any cluster decode revealed
}

// clusterize runs the offline cluster construction: for each level i
// and each u ∈ C_i, the summed sketch over the current cluster is
// decoded from the sparsest subsampling level down, yielding a parent
// in C_{i+1} and a witness edge, or terminal status. Within each level
// the dirty centers decode on the calling goroutine into one reusable
// scratch sketch, checking the policy's context before each; all
// structure mutations (parent assignment, member folds, terminal
// marks) are applied afterwards in ascending center order.
//
// A live state caches each center's attachment under its copy index,
// with the member list and the summed generation counter of every
// pass-1 sketch the decode read; an equal list and sum prove the
// sketches are bit-identical to the cached decode's (generations are
// monotonic), so only centers whose clusters actually absorbed updates
// are re-decoded.
func (tp *TwoPass) clusterize(p *parallel.Policy) (*clusterResult, error) {
	n, k := tp.n, tp.k
	cr := &clusterResult{}
	live := tp.liveSrc != nil

	// Copy index layout: level i copies are contiguous, in ascending
	// vertex order, from bounds[i] to bounds[i+1]. The layout is a pure
	// function of the center hierarchy, so copy indices — and with them
	// cached parent pointers and table seeds — are stable across re-runs.
	size := n
	for r := 1; r < k; r++ {
		for _, in := range tp.inC[r] {
			if in {
				size++
			}
		}
	}
	cr.copies = make([]copyNode, 0, size)
	copyIdx := make([][]int, k) // level -> vertex -> copy index, -1 if none
	bounds := make([]int, k+1)
	idx := make([]int, k*n)
	for i := 0; i < k; i++ {
		copyIdx[i], idx = idx[:n:n], idx[n:]
		bounds[i] = len(cr.copies)
		for u := 0; u < n; u++ {
			copyIdx[i][u] = -1
			if i == 0 || tp.inC[i][u] {
				copyIdx[i][u] = len(cr.copies)
				cr.copies = append(cr.copies, copyNode{
					u: u, level: i, parent: -1, members: []int{u},
				})
			}
		}
	}
	bounds[k] = len(cr.copies)

	var scratch *sketch.SketchB

	for i := 0; i < k-1; i++ {
		var sp obs.Span
		if tr := p.Tracer(); tr != nil {
			sp = tr.Span(fmt.Sprintf("spanner/cluster/level%02d", i))
		}
		hits0, misses0 := tp.cacheHits, tp.cacheMisses
		// Centers of level i are its copies, in ascending vertex order —
		// the serial iteration order the result application below
		// replays. Center idx is copy lo+idx.
		lo := bounds[i]
		centers := cr.copies[lo:bounds[i+1]]
		results := make([]attachResult, len(centers))
		// Split centers into cache hits and dirty (to-decode) ones.
		// Cluster members of level i were frozen when level i-1 was
		// applied.
		dirty := make([]int, 0, len(centers))
		var gens []uint64
		if live {
			if tp.attach == nil {
				tp.attach = make([]attachEntry, len(cr.copies))
			}
			gens = make([]uint64, len(centers))
			for idx := range centers {
				ci := lo + idx
				members := cr.copies[ci].members
				gens[idx] = tp.attachGens(i, members)
				if ent := &tp.attach[ci]; ent.gens == gens[idx] && slices.Equal(ent.members, members) {
					tp.cacheHits++
					results[idx] = ent.res
					continue
				}
				tp.cacheMisses++
				dirty = append(dirty, idx)
			}
		} else {
			for idx := range centers {
				dirty = append(dirty, idx)
			}
		}
		for _, idx := range dirty {
			if err := p.Context().Err(); err != nil {
				return nil, err
			}
			if err := tp.decodeAttachment(&scratch, i, centers[idx].members, copyIdx, &results[idx]); err != nil {
				return nil, err
			}
		}
		if live {
			for _, idx := range dirty {
				ci := lo + idx
				tp.attach[ci] = attachEntry{members: cr.copies[ci].members, gens: gens[idx], res: results[idx]}
			}
		}
		// Apply in center order: parent assignment, member folds into
		// the next level's clusters, augmented recording.
		var attached int64
		for idx := range centers {
			c := &centers[idx]
			res := &results[idx]
			cr.augmented = append(cr.augmented, res.augmented...)
			if !res.attached {
				c.terminal = true
				continue
			}
			c.parent = res.parent
			c.witness = res.witness
			par := &cr.copies[res.parent]
			par.members = mergeSortedUnique(par.members, c.members)
			attached++
		}
		sp.End(
			obs.A("centers", int64(len(centers))),
			obs.A("dirty", int64(len(dirty))),
			obs.A("attached", attached),
			obs.A("cache_hit", int64(tp.cacheHits-hits0)),
			obs.A("cache_miss", int64(tp.cacheMisses-misses0)))
	}
	// Level k-1 copies are always terminal.
	for ci := bounds[k-1]; ci < bounds[k]; ci++ {
		cr.copies[ci].terminal = true
	}

	// terminalsOf[a]: terminal copies whose cluster contains a, cut from
	// one slab. Copy (a, i)'s chain ends at the root of its tree, which
	// is terminal.
	cr.terminalsOf = make([][]int, n)
	slab := make([]int, 0, len(cr.copies))
	for u := 0; u < n; u++ {
		start := len(slab)
		for i := 0; i < k; i++ {
			root := copyIdx[i][u]
			if root < 0 {
				continue
			}
			for cr.copies[root].parent != -1 {
				root = cr.copies[root].parent
			}
			if !cr.copies[root].terminal {
				return nil, fmt.Errorf("spanner: internal: non-terminal root copy %d", root)
			}
			slab = append(slab, root)
		}
		ts := slab[start:len(slab):len(slab)]
		slices.Sort(ts)
		cr.terminalsOf[u] = compactInts(ts)
	}
	return cr, nil
}

// decodeAttachment decodes one center's attachment at level i:
// Q^{i+1}_j = Σ_{v ∈ members} S^{i+1}_j(v), decoded from the sparsest
// subsampling level down; the smallest valid key wins (deterministic).
// Members whose sketch was never touched contribute zero and are
// skipped; a level no member touched sums to the zero vector, which
// decodes to nothing. *scratch is the caller's reusable sum, created on
// first use.
func (tp *TwoPass) decodeAttachment(scratch **sketch.SketchB, i int, members []int, copyIdx [][]int, res *attachResult) error {
	n := tp.n
	r := i + 1
	for j := tp.jMax; j >= 0 && !res.attached; j-- {
		var q *sketch.SketchB
		for _, v := range members {
			s := tp.vertexSk[v][r-1][j]
			switch {
			case s == nil:
			case q != nil:
				if err := q.Merge(s); err != nil {
					return fmt.Errorf("spanner: pass1 merge: %w", err)
				}
			case *scratch == nil:
				q = s.Clone()
				*scratch = q
			default:
				q = *scratch
				q.SetTo(s)
			}
		}
		if q == nil {
			continue
		}
		items, decoded := q.DecodeInPlace() // q is the scratch, refilled before its next use
		if !decoded || len(items) == 0 {
			continue
		}
		// Deterministic choice: smallest key; validate support.
		keys := make([]uint64, 0, len(items))
		for key := range items {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			a := int(key / uint64(n))
			b := int(key % uint64(n))
			if a < 0 || a >= n || b < 0 || b >= n || a == b {
				continue // fingerprint-level corruption; skip
			}
			if !tp.inC[r][b] {
				continue
			}
			if tp.cfg.CollectAugmented {
				res.augmented = append(res.augmented, canonPair(a, b))
			}
			if !res.attached {
				res.parent = copyIdx[r][b]
				res.witness = [2]int{a, b}
				res.attached = true
			}
		}
	}
	return nil
}

func canonPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// allocTables lays out the second-pass hash tables H^t_j of the
// terminal copies: one slab of yMax+1 slots per terminal, cut into rows.
// Every slot starts nil, the zero table, so laying out the tables costs
// one pointer per (terminal, level), and a slot is created by the first
// write to it (table). Claim 11 provisions every slot, and SpaceWords
// counts them all.
func (tp *TwoPass) allocTables() [][]*sketch.KeyedEdgeSketch {
	tables := make([][]*sketch.KeyedEdgeSketch, len(tp.copies))
	width := tp.yMax + 1
	slab := make([]*sketch.KeyedEdgeSketch, tp.terminals()*width)
	for ci := range tp.copies {
		if tp.copies[ci].terminal {
			tables[ci], slab = slab[:width:width], slab[width:]
		}
	}
	return tables
}

// table returns H^ci_j, creating it on first write. Its seed is a
// deterministic function of the configuration and the copy index, so
// tables of different pass-2 workers over the same cluster structure
// are mergeable. A pass-2 sweep creates only slots in its own table
// range, so creating them takes no lock.
func (tp *TwoPass) table(ci, j int) *sketch.KeyedEdgeSketch {
	t := &tp.tables[ci][j]
	if *t == nil {
		*t = sketch.NewKeyedEdgeSketch(hashing.Mix(tp.cfg.Seed, 0x7a, uint64(ci), uint64(j)),
			tp.n, tp.tableCapacity(tp.copies[ci].level))
	}
	return *t
}

// tableCapacity sizes the tables of a terminal copy at level i per Claim
// 11, |N(T_u)| = O(n^{(i+1)/k} log n), at least 8 and never more keys
// than vertices.
func (tp *TwoPass) tableCapacity(i int) int {
	capf := tp.cfg.TableFactor * float64(tp.log2n) * math.Pow(float64(tp.n), float64(i+1)/float64(tp.k))
	return min(max(int(capf), 8), tp.n)
}

// TableSlots counts the pass-2 hash-table slots: provisioned is every
// (terminal copy, level) slot, the tables Claim 11 provisions and
// SpaceWords counts; created is the slots a write has created; touched
// is the created tables that hold hash state. A slot no write reached
// is nil, so a build pays for created tables only.
func (tp *TwoPass) TableSlots() (provisioned, created, touched int) {
	for _, row := range tp.tables {
		provisioned += len(row)
		for _, t := range row {
			if t != nil {
				created++
			}
			if t.Touched() {
				touched++
			}
		}
	}
	return provisioned, created, touched
}

// terminals counts the terminal copies, each of which has a table row.
func (tp *TwoPass) terminals() int {
	count := 0
	for ci := range tp.copies {
		if tp.copies[ci].terminal {
			count++
		}
	}
	return count
}

// mergeSortedUnique merges two ascending duplicate-free lists into one
// ascending duplicate-free list — the member-fold primitive of the
// cluster construction (lists may overlap when clusters share
// vertices).
func mergeSortedUnique(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// compactInts removes adjacent duplicates from a sorted slice, in
// place.
func compactInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func containsInt(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

// Pass2Update ingests one stream update during the second pass: a
// batch of one.
func (tp *TwoPass) Pass2Update(u stream.Update) error {
	return tp.Pass2AddBatch([]stream.Update{u})
}

// Pass2AddBatch ingests a batch of second-pass updates on the calling
// goroutine: Pass2AddBatchOpts at one worker.
func (tp *TwoPass) Pass2AddBatch(batch []stream.Update) error {
	return tp.Pass2AddBatchOpts(batch, serial)
}

// serial is the policy Pass2AddBatch runs under: only its worker count,
// 1, is read.
var serial = parallel.Default()

// Pass2AddBatchOpts ingests a batch of second-pass updates (Algorithm
// 2, lines 10–18), fanned out across the policy's workers: the update
// for edge (a, b) reaches H^t_j for every terminal cluster t containing
// a but not b, at every vertex subsampling level j with a ∈ Y_j — and
// symmetrically for b. See addPass2 for how a batch is applied.
func (tp *TwoPass) Pass2AddBatchOpts(batch []stream.Update, p *parallel.Policy) error {
	if tp.phase != 1 {
		return fmt.Errorf("spanner: Pass2Update called in phase %d", tp.phase)
	}
	tp.addPass2(batch, parallel.BatchWorkers(p.Workers(), len(batch)))
	return nil
}

// Finish completes Algorithm 2 (lines 20–33): witness edges for
// non-terminal copies, plus one recovered edge from every outside
// neighbor v into each terminal cluster.
func (tp *TwoPass) Finish() (*Result, error) {
	return tp.FinishOpts(parallel.Default())
}

// FinishOpts is the policy-driven decode half of Algorithm 2: the
// policy supplies cancellation and the tracer (see extractOpts).
func (tp *TwoPass) FinishOpts(p *parallel.Policy) (*Result, error) {
	if tp.phase != 1 {
		return nil, fmt.Errorf("spanner: Finish called in phase %d", tp.phase)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("spanner: %w", err)
	}
	tp.phase = 2
	return tp.extractOpts(p)
}

// extractOpts is the repeatable decode behind FinishOpts and QueryLive:
// witness edges from the cluster structure plus per-terminal
// neighborhood recovery from the pass-2 tables. It never mutates sketch
// state, so a live handle can call it after every churn round; in a
// live state, a terminal whose table row generations are unchanged
// since its cached recovery is served from the cache instead of
// re-peeling its row. Dirty terminals are recovered on the calling
// goroutine with one scratch, checking the policy's context before
// each.
func (tp *TwoPass) extractOpts(p *parallel.Policy) (*Result, error) {
	live := tp.liveSrc != nil
	sp := p.Tracer().Span("spanner/recover")
	hits0, misses0 := tp.cacheHits, tp.cacheMisses
	h := graph.New(tp.n)
	recovered := 0

	for ci := range tp.copies {
		c := &tp.copies[ci]
		if c.terminal {
			continue
		}
		h.AddUnitEdge(c.witness[0], c.witness[1])
	}

	terms := make([]int, 0, len(tp.copies))
	for ci := range tp.copies {
		if tp.copies[ci].terminal {
			terms = append(terms, ci)
		}
	}
	// Split terminals into recovery-cache hits and dirty ones; only the
	// dirty subset re-peels. Generation sums are collision-free over a
	// fixed row: each counter is monotonic, so an equal sum means every
	// table in the row is bit-identical to the cached decode.
	recs := make([][][2]int, len(terms))
	dirty := make([]int, 0, len(terms))
	gens := make([]uint64, len(terms))
	for i, ci := range terms {
		for _, t := range tp.tables[ci] {
			gens[i] += t.Gen()
		}
		if live {
			if ent, ok := tp.recCache[ci]; ok && ent.gens == gens[i] {
				tp.cacheHits++
				recs[i] = ent.edges
				continue
			}
			tp.cacheMisses++
		}
		dirty = append(dirty, i)
	}
	// recoverTerminal's scratch: the resolved marks and the peel's work
	// set, reused across terminals.
	var resolved []int32
	var peel sketch.PeelScratch
	peeled := 0
	for _, i := range dirty {
		if err := p.Context().Err(); err != nil {
			return nil, err
		}
		if resolved == nil {
			resolved = make([]int32, tp.n)
		}
		var keys int
		recs[i], keys = tp.recoverTerminal(terms[i], resolved, int32(i+1), &peel)
		peeled += keys
	}
	if live {
		if tp.recCache == nil {
			tp.recCache = map[int]recEntry{}
		}
		for _, i := range dirty {
			tp.recCache[terms[i]] = recEntry{gens: gens[i], edges: recs[i]}
		}
	}
	for _, rec := range recs {
		for _, e := range rec {
			h.AddUnitEdge(e[0], e[1])
			recovered++
		}
	}
	tables, _, touched := tp.TableSlots()
	sp.End(
		obs.A("terminals", int64(len(terms))),
		obs.A("dirty", int64(len(dirty))),
		obs.A("recovered", int64(recovered)),
		obs.A("tables", int64(tables)),
		obs.A("tables_touched", int64(touched)),
		obs.A("keys", int64(peeled)),
		obs.A("cache_hit", int64(tp.cacheHits-hits0)),
		obs.A("cache_miss", int64(tp.cacheMisses-misses0)))

	res := &Result{Spanner: h, SpaceWords: tp.SpaceWords()}
	res.Stats.CopiesPerLevel = make([]int, tp.k)
	res.Stats.TerminalsPerLevel = make([]int, tp.k)
	for ci := range tp.copies {
		c := &tp.copies[ci]
		res.Stats.CopiesPerLevel[c.level]++
		if c.terminal {
			res.Terminals++
			res.Stats.TerminalsPerLevel[c.level]++
			if len(c.members) > res.Stats.MaxClusterSize {
				res.Stats.MaxClusterSize = len(c.members)
			}
		} else {
			res.Stats.WitnessEdges++
		}
	}
	res.Stats.RecoveredEdges = recovered
	if tp.cfg.CollectAugmented {
		// Recovered edges are already in h; the cluster-decode edges in
		// tp.augmented are the extra Ω(R) set of Claims 16/18/20.
		aug := h.Clone()
		for e := range tp.augmented {
			aug.AddUnitEdge(e[0], e[1])
		}
		res.Augmented = aug
	}
	return res, nil
}

// recoverTerminal is Algorithm 2's neighborhood recovery for terminal
// copy ci: one edge (w, v) into the cluster for every outside vertex v
// some level's table decodes, in ascending v, plus the number of keys
// the row's peels recovered. Each v takes the edge of the sparsest
// level whose table yields one for it. Only keys a level's peel
// recovered can decode there, so walking those — sparsest level first,
// skipping vertices already resolved — and ordering the edges by
// outside vertex makes exactly the (v ascending, j descending) probes
// that can succeed, at a cost proportional to the keys rather than to
// n × levels. resolved and sc are the caller's scratch: resolved has n
// entries, and resolved[v] == mark records that v already has its
// edge, so one array serves every terminal of a decode, each under its
// own non-zero mark; sc holds each table's peel until the next.
func (tp *TwoPass) recoverTerminal(ci int, resolved []int32, mark int32, sc *sketch.PeelScratch) (rec [][2]int, keys int) {
	row := tp.tables[ci]
	for j := tp.yMax; j >= 0; j-- {
		ks := row[j].Peel(sc)
		keys += len(ks)
		for _, k := range ks {
			v := k.V
			if v >= tp.n || resolved[v] == mark || containsInt(tp.terminalsOf[v], ci) {
				continue // not a vertex, resolved at a sparser level, or inside the cluster
			}
			// The inside endpoint must actually belong to the cluster; a
			// fingerprint-level miss is discarded.
			if k.OK && containsInt(tp.terminalsOf[k.W], ci) {
				rec = append(rec, [2]int{k.W, v})
				resolved[v] = mark
			}
		}
	}
	slices.SortFunc(rec, func(a, b [2]int) int { return cmp.Compare(a[1], b[1]) })
	return rec, keys
}

// SpaceWords returns the sketch footprint in 64-bit words.
func (tp *TwoPass) SpaceWords() int {
	// Every vertex-sketch slot counts, touched or not (newTwoPass lays
	// out n·(k−1)·(jMax+1) of them, none for a fork): all families share
	// one geometry.
	w := len(tp.vertexSk) * (tp.k - 1) * (tp.jMax + 1) * sketch.SketchBWords(tp.cfg.Budget, sketch.SketchConfig{})
	for ci, row := range tp.tables {
		if row != nil { // every slot counts, created or not
			w += len(row) * sketch.KeyedEdgeWords(tp.tableCapacity(tp.copies[ci].level))
		}
	}
	return w
}

// BuildTwoPass runs both passes of the 2^k-spanner construction over a
// replayable dynamic stream (Theorem 1). The stream must describe an
// unweighted (or uniformly weighted) graph; for weighted graphs use
// BuildTwoPassWeighted.
func BuildTwoPass(st stream.Stream, cfg Config) (*Result, error) {
	tp := NewTwoPass(st.N(), cfg)
	if err := stream.ReplayBatches(st, 0, tp.Pass1AddBatch); err != nil {
		return nil, fmt.Errorf("spanner: pass 1: %w", err)
	}
	if err := tp.EndPass1(); err != nil {
		return nil, err
	}
	if err := stream.ReplayBatches(st, 0, tp.Pass2AddBatch); err != nil {
		return nil, fmt.Errorf("spanner: pass 2: %w", err)
	}
	return tp.Finish()
}

// BuildTwoPassWeighted runs the weighted construction of Remark 14:
// edges are partitioned into geometric weight classes with ratio
// classBase (> 1), the unweighted construction runs per class, and the
// union is returned with each spanner edge carrying its class's upper
// weight bound — so distances in the spanner are between d_G and
// classBase·2^k·d_G.
func BuildTwoPassWeighted(st stream.Stream, cfg Config, classBase float64) (*Result, error) {
	return BuildTwoPassWeightedWith(st, cfg, classBase, func(sub stream.Source, ccfg Config) (*Result, error) {
		return BuildTwoPass(sub, ccfg)
	})
}
