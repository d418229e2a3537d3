package agm

// Spanning-forest extraction: Borůvka rounds over the per-vertex
// samplers. Round r draws one boundary edge (a pick) for every
// component of partition r — the components when the round starts —
// and unions the picks in ascending root order into partition r+1. A
// live sketch keeps the trace of the partitions its last extraction
// built, and a re-query repairs that trace instead of rebuilding it:
// it redraws only the components whose members changed or whose draw a
// logged update can reach (findDirty), and recomputes partition r+1
// only inside the region those changes can reach. The trace's validity
// rule is on Sketch (agm.go).

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// SpanningForest extracts a spanning forest of the sketched graph. If
// groups is non-nil, each group of vertices is first collapsed into a
// supernode (clusters T_u of Algorithm 3); vertices absent from every
// group stay singletons. The returned edges are original graph edges
// whose endpoints lie in different (super)components, forming a forest
// over the contraction.
func (s *Sketch) SpanningForest(groups [][]int) ([]graph.Edge, error) {
	return s.SpanningForestOpts(groups, parallel.Default())
}

// SpanningForestOpts is the policy-driven forest extraction behind
// SpanningForest: the policy supplies cancellation and the tracer, and
// its worker count is not read. Within each round every dirty component
// draws one boundary edge from the sum of its samplers, summing only
// the levels the draw reads, on the calling goroutine with one reusable
// scratch — a draw costs microseconds, less than a goroutine hand-off —
// and the context is checked before each draw.
//
// With the decode cache on, the extraction repairs the trace the
// previous one left (forestDecode). A first query, a restore, a log
// overflow and a query after a failed one have no trace to repair and
// run every round in full; so does every round past the last one the
// previous query decoded. Roots, union order, forest and the cache's
// hit and miss counts are those of a full decode.
func (s *Sketch) SpanningForestOpts(groups [][]int, p *parallel.Policy) ([]graph.Edge, error) {
	for gi, grp := range groups {
		for _, v := range grp {
			if v < 0 || v >= s.n {
				return nil, fmt.Errorf("agm: group %d contains out-of-range vertex %d", gi, v)
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("agm: %w", err)
	}
	d := s.trace
	if d == nil {
		d = newForestDecode(s)
		if s.caching {
			s.trace = d
		}
	}
	forest, err := d.run(groups, p)
	if s.caching {
		if err != nil {
			// run left the half-repaired trace marked as none (depth
			// -1); the log is cleared and the next query starts over.
			s.log = s.log[:0]
			s.logGen++
			return nil, err
		}
		s.completeQueryWindow()
		d.gen = s.logGen
	}
	return forest, err
}

// errRepair reports a repair whose own invariant failed: a pick of a
// component inside the recomputed region reached a component outside
// it. The trace is dropped with the error, so the next query decodes in
// full.
var errRepair = errors.New("agm: forest repair: a pick leaves its region")

// noPick marks a component whose summed sampler is (whp) zero or failed
// to decode; a pick is otherwise its edge's endpoints a < b packed as
// a<<32 | b.
const noPick = ^uint64(0)

func unpack(pk uint64) (a, b int32) { return int32(pk >> 32), int32(uint32(pk)) }

// level is partition l of the trace and round l's outcome, every
// by-vertex array meaningful at the partition's roots: which vertices
// are roots (bits, count), each root's union-by-rank rank when the
// round starts, and its kids, the ascending partition-(l-1) roots it was
// formed from (itself included) — the segment of the kids slab at
// koff, a count followed by the roots; a repair appends the segments it
// rebuilds and compacts the slab when half of it is stale. Round l
// stores each root's pick, the L0 level the pick's draw decoded at (at;
// 0 for no pick), its partition-(l+1) root (up), and rec, the ascending
// roots whose pick merged two components — the round's forest edges, in
// order.
type level struct {
	bits     []uint64
	count    int
	rank     []uint8
	koff, up []int32
	kids     []int32
	pick     []uint64
	at       []uint8
	rec      []int32
}

// kidsOf returns root x's kids.
func (lv *level) kidsOf(x int32) []int32 {
	off := lv.koff[x]
	return lv.kids[off+1 : off+1+lv.kids[off]]
}

// span is an ordered pair of vertex sets' roots: the vertices that were
// in the trace's component old at some level and are in component now.
type span struct{ old, now int32 }

// forestDecode is the state of an extraction. With caching on it
// persists on the sketch as the trace the next query repairs: every
// level the last query built, 0 to depth, is kept (a level's arrays are
// allocated when a query first reaches it). With caching off it lives
// for one query: it keeps only the current round's picks and two root
// lists, its union-find spans the rounds, and each component's members
// are one chain spliced at every union.
//
// A repair of round l starts from the changes partition l has against
// the trace (chg: its roots whose component is not the trace's — other
// members or another rank — and, in same, those whose members are the
// trace's; gone: the trace's roots whose component did not survive;
// moved: where the members that changed components went) and marks, in
// the trace's partition l+1, every component holding a root of gone, a
// root whose pick changed, or an endpoint of a pick of a changed
// component. The region is the partition-l roots inside the marked
// components: only they are re-unioned, seeded with their ranks in
// ascending root order, and everything outside is carried. Union by
// rank over disjoint sets does not interact, so roots, ranks and the
// order of the unions are those of a full decode.
type forestDecode struct {
	s     *Sketch
	keep  bool
	lv    []level
	depth int    // rounds the trace's query decoded; -1: no trace
	gen   uint64 // the window the trace describes (Sketch.logGen)
	r     int    // the current round
	k     int    // components of the current partition

	// Partition 0: lab0 is each vertex's root (nil: ungrouped, every
	// vertex its own); groups is the trace's groups, each as its length
	// and members. head/next chain each level-0 component's members
	// (nil: ungrouped and cached); uncached, tail makes the chains
	// spliceable and every component's members are its chain.
	lab0, labBuf     []int32
	groups           []int32
	head, tail, next []int32

	// Union-find over the round's region (uncached: over every vertex,
	// across rounds).
	par  []int32
	rank []uint8

	roots   []int32 // the partition's roots, ascending; nil: not listed (repair)
	rootBuf []int32 // the roots list's buffer while it is not listed
	region  []int32 // the round's region, ascending
	dirty   []int32
	changed []int32 // dirty components the trace had, whose pick changed
	marked  []int32 // components of the trace's next partition
	chg     []int32
	gone    []int32
	moved   []span
	spanBuf []span
	cur     []int32          // the log's endpoints' roots, this round
	pows    []hashing.Powers // each logged pair key's powers, this query
	order   []uint64         // sortRegion's bitset, zero between calls
	kidBuf  []int32          // the spare kids slab a compaction fills
	kept    []int32
	newRec  []int32
	recBuf  []int32

	touch, mark, inReg, isGone, isChg, same, moveEnd stamps

	members []*sketch.L0Sampler
	stack   []kidAt
	sample  sketch.SampleScratch
	sizes   []int32 // traced rounds: component sizes
}

// stamps is a vertex set cleared in O(1): x is in it when at[x] == cur.
type stamps struct {
	at  []uint32
	cur uint32
}

func (t *stamps) reset(n int) {
	if t.at == nil {
		t.at = make([]uint32, n)
	}
	if t.cur++; t.cur == 0 {
		clear(t.at)
		t.cur = 1
	}
}

func (t *stamps) has(x int32) bool { return t.at[x] == t.cur }

// add puts x in the set and reports whether it was absent.
func (t *stamps) add(x int32) bool {
	if t.at[x] == t.cur {
		return false
	}
	t.at[x] = t.cur
	return true
}

func newForestDecode(s *Sketch) *forestDecode {
	d := &forestDecode{s: s, keep: s.caching, depth: -1}
	n := s.n
	d.par, d.rank = make([]int32, n), make([]uint8, n)
	if d.keep {
		d.lv = make([]level, s.rounds+1)
	} else {
		// One query's lists, sized once: every list holds at most one
		// entry per vertex.
		d.lv = []level{{pick: make([]uint64, n), at: make([]uint8, n)}}
		d.head, d.tail, d.next = make([]int32, n), make([]int32, n), make([]int32, n)
		lists := make([]int32, 4*n)
		d.roots, d.region, d.dirty, d.newRec = lists[:0:n], lists[n:n:2*n], lists[2*n:2*n:3*n], lists[3*n:3*n]
		d.members = make([]*sketch.L0Sampler, 0, n)
	}
	return d
}

// level returns level l, allocated when first reached; uncached, every
// round shares one pick array.
func (d *forestDecode) level(l int) *level {
	if !d.keep {
		return &d.lv[0]
	}
	lv := &d.lv[l]
	if lv.pick == nil {
		n := d.s.n
		lv.bits = make([]uint64, (n+63)/64)
		lv.rank = make([]uint8, n)
		lv.koff, lv.up = make([]int32, n), make([]int32, n)
		lv.pick = make([]uint64, n)
		lv.at = make([]uint8, n)
	}
	return lv
}

func (d *forestDecode) find(x int32) int32 {
	for d.par[x] != x {
		d.par[x] = d.par[d.par[x]]
		x = d.par[x]
	}
	return x
}

// union merges the sets of a and b by rank and returns the surviving
// root and the absorbed one, or ok false if they were one set.
func (d *forestDecode) union(a, b int32) (ra, rb int32, ok bool) {
	ra, rb = d.find(a), d.find(b)
	if ra == rb {
		return ra, rb, false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.par[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return ra, rb, true
}

// rootOf returns vertex v's root in partition l: its level-0 root
// carried up l levels. Uncached, the union-find answers instead.
func (d *forestDecode) rootOf(v int32, l int) int32 {
	if !d.keep {
		return d.find(v)
	}
	if d.lab0 != nil {
		v = d.lab0[v]
	}
	for i := 0; i < l; i++ {
		v = d.lv[i].up[v]
	}
	return v
}

// run is one extraction: partition 0 from the groups, then the rounds.
// Traced, an agm/forest span reports the rounds it ran and whether they
// ran out: the last provisioned round still merged and more than one
// component remains, so a missing forest edge may be a round shortage,
// not a cut.
func (d *forestDecode) run(groups [][]int, p *parallel.Policy) ([]graph.Edge, error) {
	s := d.s
	var fsp obs.Span
	if tr := p.Tracer(); tr != nil {
		fsp = tr.Span("agm/forest")
	}
	depth := 0 // rounds the trace holds picks for
	if d.keep && d.depth >= 0 && d.gen == s.logGen {
		depth = d.depth
	}
	d.level0(groups, depth > 0)
	d.depth = -1
	var forest []graph.Edge
	rounds, merges := 0, 0
	for l := 0; l < s.rounds && d.k > 1; l++ {
		var sp obs.Span
		tr := p.Tracer()
		if tr != nil {
			sp = tr.Span(fmt.Sprintf("agm/round%02d", l))
		}
		d.r, rounds = l, l+1
		full := l >= depth
		k := d.k
		var largest int32
		if tr != nil {
			largest = d.largest(l)
		}
		hits0, misses0 := s.cacheHits, s.cacheMisses
		lv := d.level(l)
		kept := 0
		if full {
			if d.roots == nil {
				d.listRoots(l)
			}
			d.region, d.dirty = append(d.region[:0], d.roots...), append(d.dirty[:0], d.roots...)
		} else {
			d.findDirty(l)
			if tr != nil {
				kept = d.levelKept()
			}
		}
		d.changed = d.changed[:0]
		for _, x := range d.dirty {
			if err := p.Context().Err(); err != nil {
				return nil, err
			}
			pk, err := d.decode(x)
			if err != nil {
				return nil, err
			}
			if !full && !d.isChg.has(x) && pk != lv.pick[x] {
				d.changed = append(d.changed, x)
			}
			lv.pick[x], lv.at[x] = pk, uint8(d.sample.Level)
		}
		if d.keep {
			s.cacheHits += uint64(k - len(d.dirty))
			s.cacheMisses += uint64(len(d.dirty))
		}
		d.kept = d.kept[:0]
		if !full {
			d.findRegion(l)
		}
		if err := d.unite(l, full); err != nil {
			return nil, err
		}
		// The round's forest edges: the carried records and the
		// region's, merged by root.
		rec := d.newRec
		if d.keep {
			rec = mergeAscending(d.recBuf[:0], d.kept, d.newRec)
			d.recBuf, lv.rec = lv.rec, rec
		}
		if forest == nil && len(rec) > 0 {
			forest = make([]graph.Edge, 0, d.k-1) // one edge per component the forest can join
		}
		for _, x := range rec {
			a, b := unpack(lv.pick[x])
			forest = append(forest, graph.Edge{U: int(a), V: int(b), W: 1}.Canon())
		}
		var sampled int
		if tr != nil {
			sampled = d.sampled(l, full)
		}
		d.link(l, full)
		folds := d.sample.Blocks
		d.sample.Blocks = 0
		sp.End(
			obs.A("components", int64(k)),
			obs.A("largest", int64(largest)),
			obs.A("dirty", int64(len(d.dirty))),
			obs.A("region", int64(len(d.region))),
			obs.A("sampled", int64(sampled)),
			obs.A("sample_empty", int64(k-sampled)),
			obs.A("merges", int64(len(rec))),
			obs.A("cache_hit", int64(s.cacheHits-hits0)),
			obs.A("cache_miss", int64(s.cacheMisses-misses0)),
			obs.A("level_kept", int64(kept)),
			obs.A("folds", folds))
		if merges = len(rec); merges == 0 {
			break
		}
	}
	d.depth = rounds
	exhausted := int64(0)
	if rounds == s.rounds && merges > 0 && d.k > 1 {
		exhausted = 1
	}
	fsp.End(obs.A("rounds_used", int64(rounds)), obs.A("rounds_exhausted", exhausted))
	return forest, nil
}

// level0 builds partition 0: each group collapsed into one component by
// union by rank, the other vertices singletons. Repairing, the same
// groups leave the trace's partition 0 as it is, and other groups are
// diffed against it.
func (d *forestDecode) level0(groups [][]int, repair bool) {
	n := d.s.n
	d.chg, d.gone, d.moved = d.chg[:0], d.gone[:0], d.moved[:0]
	if d.keep {
		d.isChg.reset(n)
		d.same.reset(n)
		d.isGone.reset(n)
		if repair && d.sameGroups(groups) {
			d.rootList()
			d.k = d.lv[0].count
			return
		}
	}
	for v := range d.par {
		d.par[v], d.rank[v] = int32(v), 0
	}
	for _, g := range groups {
		for _, v := range g {
			d.union(int32(g[0]), int32(v))
		}
	}
	// Member chains, ascending: uncached every partition's, cached only
	// the groups'.
	if len(groups) > 0 && d.head == nil {
		d.head, d.next = make([]int32, n), make([]int32, n)
	}
	if d.head != nil {
		for v := range d.head {
			d.head[v] = -1
		}
		for v := n - 1; v >= 0; v-- {
			r := d.find(int32(v))
			if d.head[r] < 0 && d.tail != nil {
				d.tail[r] = int32(v)
			}
			d.next[v], d.head[r] = d.head[r], int32(v)
		}
	}
	roots := d.rootList()
	for v := range d.par {
		if d.find(int32(v)) == int32(v) {
			roots = append(roots, int32(v))
		}
	}
	d.roots = roots
	d.k = len(d.roots)
	if !d.keep {
		return
	}
	var lab []int32
	if len(groups) > 0 {
		lab = slices.Grow(d.labBuf[:0], n)[:n]
		for v := range lab {
			lab[v] = d.find(int32(v))
		}
	}
	lv := d.level(0)
	if repair {
		d.diff0(lab)
	}
	clear(lv.bits)
	for _, x := range d.roots {
		lv.bits[x>>6] |= 1 << (x & 63)
		lv.rank[x] = d.rank[x]
	}
	lv.count = len(d.roots)
	d.labBuf, d.lab0 = d.lab0, lab
	d.groups = d.groups[:0]
	for _, g := range groups {
		d.groups = append(d.groups, int32(len(g)))
		for _, v := range g {
			d.groups = append(d.groups, int32(v))
		}
	}
	if repair {
		d.rootList() // the rounds find their regions by repair
	}
}

// sameGroups reports whether groups are the trace's, group by group.
func (d *forestDecode) sameGroups(groups [][]int) bool {
	i := 0
	for _, g := range groups {
		if i+1+len(g) > len(d.groups) || d.groups[i] != int32(len(g)) {
			return false
		}
		for j, v := range g {
			if d.groups[i+1+j] != int32(v) {
				return false
			}
		}
		i += 1 + len(g)
	}
	return i == len(d.groups)
}

// diff0 sets partition 0's changes against the trace's (lab: the new
// level-0 roots, nil when ungrouped; the union-find holds the ranks).
func (d *forestDecode) diff0(lab []int32) {
	lv := &d.lv[0]
	root := func(lab []int32, v int) int32 {
		if lab == nil {
			return int32(v)
		}
		return lab[v]
	}
	d.moveEnd.reset(d.s.n)
	for v := range d.par {
		if o, now := root(d.lab0, v), root(lab, v); o != now {
			d.moved = append(d.moved, span{o, now})
			d.moveEnd.add(o)
			d.moveEnd.add(now)
		}
	}
	d.classify(lv, d.roots)
	for w, word := range lv.bits {
		for ; word != 0; word &= word - 1 {
			x := int32(w<<6 + bits.TrailingZeros64(word))
			if d.par[x] != x || d.isChg.has(x) {
				d.isGone.add(x)
				d.gone = append(d.gone, x)
			}
		}
	}
}

// classify lists in chg the roots among roots whose component is not
// the trace's at level lv — the trace had no such root, a moved span
// names it, or its rank differs — and in same those whose members are
// the trace's.
func (d *forestDecode) classify(lv *level, roots []int32) {
	for _, x := range roots {
		same := lv.bits[x>>6]&(1<<(x&63)) != 0 && !d.moveEnd.has(x)
		if !same || lv.rank[x] != d.rank[x] {
			d.isChg.add(x)
			d.chg = append(d.chg, x)
			if same {
				d.same.add(x)
			}
		}
	}
}

// rootList returns an empty list for a partition's roots, reusing the
// buffer the previous list left.
func (d *forestDecode) rootList() []int32 {
	if d.roots != nil {
		d.rootBuf, d.roots = d.roots, nil
	}
	return d.rootBuf[:0]
}

// listRoots lists partition l's roots in ascending order.
func (d *forestDecode) listRoots(l int) {
	roots := d.rootList()
	for w, word := range d.lv[l].bits {
		for ; word != 0; word &= word - 1 {
			roots = append(roots, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	d.roots = roots
}

// findDirty lists the components of a repaired round that must be
// drawn: the changed ones whose members are not the trace's, those
// holding a vertex a Merge changed, and those whose draw a logged update
// can reach. The trace's draw of component C read only the sum of C's
// members' samplers from their highest top down to the level it decoded
// at (at). An update {a, b} at geometric level lv writes a's and b's
// levels 0..lv with opposite signs. With both endpoints in C it cancels
// in the sum at every level; if it raises a member's top, the sum is
// zero up there and a draw walks past it. With lv below C's level it
// writes none of the levels the draw read and, lying below the members'
// highest top, cannot move that top. Either way the same walk returns
// the same pick at the same level, so C keeps its draw unless an update
// crosses C's boundary at or above C's level.
func (d *forestDecode) findDirty(l int) {
	s := d.s
	log := s.log
	if l == 0 {
		d.cur = slices.Grow(d.cur[:0], 2*len(log))[:2*len(log)]
		d.pows = slices.Grow(d.pows[:0], len(log))[:len(log)]
		for i, u := range log {
			d.cur[2*i], d.cur[2*i+1] = u.a, u.b
			if d.lab0 != nil {
				d.cur[2*i], d.cur[2*i+1] = d.lab0[u.a], d.lab0[u.b]
			}
			if u.a != u.b {
				hashing.PowersOf(stream.PairKey(int(u.a), int(u.b), s.n), &d.pows[i])
			}
		}
	} else {
		up := d.lv[l-1].up
		for i, x := range d.cur {
			d.cur[i] = up[x]
		}
	}
	d.touch.reset(s.n)
	d.dirty = d.dirty[:0]
	at, fam := d.lv[l].at, s.fam[l]
	for i, u := range log {
		x, y := d.cur[2*i], d.cur[2*i+1]
		if u.a == u.b {
			if d.touch.add(x) {
				d.dirty = append(d.dirty, x)
			}
			continue
		}
		if x == y || d.touch.has(x) && d.touch.has(y) {
			continue
		}
		lvl := fam.Level(&d.pows[i])
		for _, z := range [2]int32{x, y} {
			if lvl >= int(at[z]) && d.touch.add(z) {
				d.dirty = append(d.dirty, z)
			}
		}
	}
	for _, x := range d.chg {
		if !d.same.has(x) && d.touch.add(x) {
			d.dirty = append(d.dirty, x)
		}
	}
}

// levelKept counts the components the log names whose draw findDirty
// kept (traced rounds only: it visits the log again).
func (d *forestDecode) levelKept() int {
	d.mark.reset(d.s.n)
	kept := 0
	for _, x := range d.cur {
		if !d.touch.has(x) && d.mark.add(x) {
			kept++
		}
	}
	return kept
}

// findRegion marks the trace's partition-(l+1) components a repaired
// round must recompute, lists the region (the partition-l roots inside
// them, ascending) and keeps the trace's records outside it.
func (d *forestDecode) findRegion(l int) {
	n := d.s.n
	lv, nx := &d.lv[l], &d.lv[l+1]
	d.mark.reset(n)
	d.marked = d.marked[:0]
	for _, x := range d.gone {
		d.markUp(lv, x)
	}
	for _, x := range d.changed {
		d.markUp(lv, x)
		d.markEnds(lv, l, lv.pick[x])
	}
	for _, x := range d.chg {
		d.markEnds(lv, l, lv.pick[x])
	}
	d.inReg.reset(n)
	d.region = d.region[:0]
	for _, S := range d.marked {
		for _, x := range nx.kidsOf(S) {
			if !d.isGone.has(x) && d.inReg.add(x) {
				d.region = append(d.region, x)
			}
		}
	}
	for _, x := range d.chg {
		if d.inReg.add(x) {
			d.region = append(d.region, x)
		}
	}
	d.sortRegion()
	for _, x := range lv.rec {
		if !d.mark.has(lv.up[x]) {
			d.kept = append(d.kept, x)
		}
	}
}

// sortRegion orders the region ascending through a vertex bitset,
// scanning only the words between its least and greatest root.
func (d *forestDecode) sortRegion() {
	if len(d.region) < 2 {
		return
	}
	if d.order == nil {
		d.order = make([]uint64, (d.s.n+63)/64)
	}
	lo, hi := len(d.order), 0
	for _, x := range d.region {
		w := int(x >> 6)
		d.order[w] |= 1 << (x & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	region := d.region[:0]
	for w := lo; w <= hi; w++ {
		for word := d.order[w]; word != 0; word &= word - 1 {
			region = append(region, int32(w<<6+bits.TrailingZeros64(word)))
		}
		d.order[w] = 0
	}
	d.region = region
}

// markUp marks the trace's partition-(l+1) component of x, a root the
// trace's partition l has.
func (d *forestDecode) markUp(lv *level, x int32) {
	if S := lv.up[x]; d.mark.add(S) {
		d.marked = append(d.marked, S)
	}
}

// markEnds marks the trace's components that a pick's endpoints lie in
// where their component is the trace's; an endpoint in a changed one
// lies in a component of gone's, marked already.
func (d *forestDecode) markEnds(lv *level, l int, pk uint64) {
	if pk == noPick {
		return
	}
	a, b := unpack(pk)
	for _, v := range [2]int32{a, b} {
		if y := d.rootOf(v, l); !d.isChg.has(y) {
			d.markUp(lv, y)
		}
	}
}

// unite unions the region's picks in ascending root order and lists the
// roots whose pick merged two components in newRec.
func (d *forestDecode) unite(l int, full bool) error {
	lv := d.level(l)
	if d.keep {
		for _, x := range d.region {
			d.par[x], d.rank[x] = x, lv.rank[x]
		}
	}
	d.newRec = d.newRec[:0]
	for _, x := range d.region {
		pk := lv.pick[x]
		if pk == noPick {
			continue
		}
		a, b := unpack(pk)
		ya, yb := d.rootOf(a, l), d.rootOf(b, l)
		if !full && (!d.inReg.has(ya) || !d.inReg.has(yb)) {
			return errRepair
		}
		ra, rb, ok := d.union(ya, yb)
		if !ok {
			continue
		}
		if !d.keep {
			d.next[d.tail[ra]], d.tail[ra] = d.head[rb], d.tail[rb]
		}
		d.newRec = append(d.newRec, x)
	}
	return nil
}

// link turns the region's unions into partition l+1: uncached, the
// surviving roots; cached, the region's part of level l+1 and, when
// repairing, its changes against the trace's.
func (d *forestDecode) link(l int, full bool) {
	next := d.rootList()
	for _, x := range d.region {
		if d.find(x) == x {
			next = append(next, x)
		}
	}
	if !d.keep {
		d.roots, d.k = next, len(next)
		return
	}
	n := d.s.n
	lv, nx := &d.lv[l], d.level(l+1)
	if !full {
		// Where the moved members go, and the members of a kept root
		// whose partition-(l+1) root changed.
		moved := d.spanBuf[:0]
		for _, m := range d.moved {
			if o, now := lv.up[m.old], d.find(m.now); o != now {
				moved = append(moved, span{o, now})
			}
		}
		for _, x := range d.region {
			if !d.isChg.has(x) || d.isGone.has(x) {
				if o, now := lv.up[x], d.find(x); o != now {
					moved = append(moved, span{o, now})
				}
			}
		}
		d.spanBuf, d.moved = d.moved, moved
		d.moveEnd.reset(n)
		for _, m := range moved {
			d.moveEnd.add(m.old)
			d.moveEnd.add(m.now)
		}
	}
	d.isChg.reset(n)
	d.same.reset(n)
	d.isGone.reset(n)
	d.chg, d.gone = d.chg[:0], d.gone[:0]
	if full {
		clear(nx.bits)
		nx.count = 0
	} else {
		d.classify(nx, next)
		for _, S := range d.marked {
			if !d.inReg.has(S) || d.par[S] != S || d.isChg.has(S) {
				d.isGone.add(S)
				d.gone = append(d.gone, S)
			}
			nx.bits[S>>6] &^= 1 << (S & 63)
			nx.count--
		}
	}
	// Each new root's kids: count them in koff, cut a segment each,
	// then place the region's roots in ascending order.
	for _, x := range next {
		nx.bits[x>>6] |= 1 << (x & 63)
		nx.count++
		nx.rank[x], nx.koff[x] = d.rank[x], 0
	}
	for _, x := range d.region {
		r := d.find(x)
		lv.up[x] = r
		nx.koff[r]++
	}
	if full {
		nx.kids = nx.kids[:0]
	}
	nx.kids = slices.Grow(nx.kids, len(next)+len(d.region))
	for _, r := range next {
		off := len(nx.kids)
		nx.kids = nx.kids[:off+1+int(nx.koff[r])]
		nx.kids[off], nx.koff[r] = 0, int32(off)
	}
	for _, x := range d.region {
		off := nx.koff[lv.up[x]]
		c := nx.kids[off]
		nx.kids[off+1+c], nx.kids[off] = x, c+1
	}
	if live := nx.count + lv.count; len(nx.kids) > 2*live+64 {
		buf := d.kidBuf[:0]
		for w, word := range nx.bits {
			for ; word != 0; word &= word - 1 {
				r := int32(w<<6 + bits.TrailingZeros64(word))
				kids := nx.kidsOf(r)
				nx.koff[r] = int32(len(buf))
				buf = append(append(buf, int32(len(kids))), kids...)
			}
		}
		d.kidBuf, nx.kids = nx.kids, buf
	}
	d.k = nx.count
	if full {
		d.roots = next
	} else {
		d.rootBuf = next // a repaired partition is not listed
	}
}

// mergeAscending appends the merge of two ascending lists to dst.
func mergeAscending(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// decode draws component x's pick from the sum of its members' samplers.
func (d *forestDecode) decode(x int32) (uint64, error) {
	d.gather(d.r, x)
	key, _, ok, err := sketch.SampleSum(d.members, &d.sample)
	if err != nil {
		return noPick, fmt.Errorf("agm: merge: %w", err)
	}
	if !ok {
		return noPick, nil
	}
	a, b := stream.DecodePairKey(key, d.s.n)
	return uint64(a)<<32 | uint64(b), nil
}

// gather sets members to the round's samplers of partition-l
// component x's members. Uncached, they are x's chain. Cached, they are
// x's level-0 members and, for each level j from l down to 1, the
// members of every other kid x has there: x is its own kid at every
// level it is a root, and that chain of self-kids is skipped rather
// than walked.
func (d *forestDecode) gather(l int, x int32) {
	d.members = d.members[:0]
	if !d.keep {
		d.add0(x)
		return
	}
	stack := append(d.stack[:0], kidAt{x, int32(l)})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x = top.x
		d.add0(x)
		for j := top.l; j > 0; j-- {
			for _, k := range d.lv[j].kidsOf(x) {
				switch {
				case k == x:
				case j == 1:
					d.add0(k)
				default:
					stack = append(stack, kidAt{k, j - 1})
				}
			}
		}
	}
	d.stack = stack
}

// add0 appends the round's samplers of partition-0 component x's
// members (uncached: of the current component's).
func (d *forestDecode) add0(x int32) {
	s := d.s
	if d.head == nil {
		d.members = append(d.members, &s.samp[int(x)*s.rounds+d.r])
		return
	}
	for v := d.head[x]; v >= 0; v = d.next[v] {
		d.members = append(d.members, &s.samp[int(v)*s.rounds+d.r])
	}
}

// kidAt is a component of gather's walk: root x of partition l.
type kidAt struct{ x, l int32 }

// largest returns the size of partition l's biggest component (traced
// rounds only: it visits every vertex).
func (d *forestDecode) largest(l int) int32 {
	if d.sizes == nil {
		d.sizes = make([]int32, d.s.n)
	}
	clear(d.sizes)
	size := int32(0)
	for v := range d.sizes {
		r := d.rootOf(int32(v), l)
		d.sizes[r]++
		size = max(size, d.sizes[r])
	}
	return size
}

// sampled counts partition l's components that drew an edge (traced
// rounds only).
func (d *forestDecode) sampled(l int, full bool) int {
	lv := d.level(l)
	if !full {
		d.listRoots(l)
	}
	count := 0
	for _, x := range d.roots {
		if lv.pick[x] != noPick {
			count++
		}
	}
	if !full {
		d.rootBuf, d.roots = d.roots, nil
	}
	return count
}

// completeQueryWindow runs after each cached extraction: the log is
// cleared and the next window opens, the one the trace describes.
func (s *Sketch) completeQueryWindow() {
	s.logGen++
	s.log = s.log[:0]
}
