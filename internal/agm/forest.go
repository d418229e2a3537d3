package agm

// Spanning-forest extraction: Borůvka rounds over the per-vertex
// samplers, with flat per-round component state and, for live handles,
// the decode cache that lets a re-query redo only what an update batch
// dirtied. The cache's state and its invariants are on Sketch (agm.go).

import (
	"fmt"
	"slices"

	"dynstream/internal/graph"
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
// SpanningForest, bit-identical at every worker count. Within each round the
// per-component work (merge the component's samplers, draw one
// boundary edge) touches disjoint state, so it fans across the
// policy's workers with one reusable scratch sampler per worker;
// everything order-sensitive — the round barrier, the union
// application, the component rebuild — stays serial.
//
// Every update adds +δ to one endpoint's samplers and −δ to the
// other's, so Σ_v samp[v][r] is the zero sketch, and the round's
// largest component L sums to minus the sum of all the others. When
// summing the others costs fewer folds than bringing L's own sum up to
// date (refreshCost), the workers fold each other component's sum into
// a per-worker accumulator as they go and L is decoded after the
// barrier from the accumulators' negated total — the same cells, so
// the same Sample.
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

	// Per-round scratch, sized once to the initial component count.
	k0 := uf.Sets()
	d := &forestDecode{
		s: s,
		cs: components{
			comp: make([]int32, s.n), slot: make([]int32, s.n), mem: make([]int32, s.n),
			roots: make([]int32, 0, k0), off: make([]int32, 0, k0+1),
		},
		// The update log names every endpoint touched since the previous
		// cached extraction unless a mutation has bypassed it (Merge).
		intact:  s.caching && s.epoch == s.winEpoch,
		workers: make([]decodeWorker, p.Workers()),
	}
	// Per-component pick of the current round, indexed by sorted-root
	// position so the serial union order below is independent of
	// scheduling.
	picks := make([]pick, k0)
	dirty := make([]int, 0, k0)
	// Per round: the clean components (hits), each one's sum where
	// one is at hand without folding, and the components the workers
	// visit.
	hits := make([]int, 0, k0)
	sums := make([]*sketch.L0Sampler, k0)
	var order []int
	var touched []bool
	var marks int64
	if s.caching {
		touched = make([]bool, k0)
		if d.intact {
			marks = 1
			d.indexLog()
		}
		if s.picks == nil {
			s.picks = make([][]pickEntry, s.rounds)
			s.merges = make([][]*mergeEntry, s.rounds)
		}
	}

	var forest []graph.Edge
	for r := 0; r < s.rounds && uf.Sets() > 1; r++ {
		var sp obs.Span
		if tr := p.Tracer(); tr != nil {
			sp = tr.Span(fmt.Sprintf("agm/round%02d", r))
		}
		d.r = r
		d.cs.rebuild(uf)
		k := len(d.cs.roots)
		li, lsize := d.cs.largest()
		hits0, misses0 := s.cacheHits, s.cacheMisses
		picks, dirty, hits, sums = picks[:k], dirty[:0], hits[:0], sums[:k]
		// The identity's cost, one fold per component but L: a dirty
		// component's sum is at hand once it is decoded, a clean one's is
		// its vertex sampler or current merged-sampler entry, and a clean
		// one with neither is summed from its members.
		idCost, lDirty := k-1, !s.caching
		// The workers only read samplers and the frozen component
		// arrays; lazy power tables are materialized up front (Warm)
		// because decoding shares them across the whole round.
		s.fam[r].Warm()
		// Cache pass (serial, cheap): a component whose member list and
		// sampler generations match the previous extraction decodes to
		// the same pick; only the dirty subset fans out to workers.
		if s.caching {
			if s.picks[r] == nil {
				s.picks[r] = make([]pickEntry, s.n)
				s.merges[r] = make([]*mergeEntry, s.n)
			}
			if d.intact {
				clear(touched[:k])
				for _, lu := range s.log {
					touched[d.cs.comp[lu.a]] = true
					touched[d.cs.comp[lu.b]] = true
				}
			}
			for i, root := range d.cs.roots {
				m := d.cs.members(i)
				e := &s.picks[r][root]
				clean := false
				if slices.Equal(e.members, m) {
					if d.intact && e.win == s.logGen {
						// The previous query validated or stored e and
						// every mutation since is in the log, so the
						// generation sum moved iff a member was logged.
						clean = !touched[i]
					} else {
						clean = e.genSum == s.genSumOf(r, m)
					}
				}
				if !clean {
					s.cacheMisses++
					dirty = append(dirty, i)
					lDirty = lDirty || i == li
					continue
				}
				s.cacheHits++
				e.win = s.logGen + 1
				picks[i] = e.pick
				hits = append(hits, i)
				sums[i] = nil
				if len(m) == 1 {
					sums[i] = s.at(r, int(m[0]))
				} else if me := s.merges[r][m[0]]; me != nil && me.genSum == e.genSum && slices.Equal(me.members, m) {
					// The member samplers — and so their cached sum —
					// are untouched since the last sync: the merged
					// sampler stays foldable through the next window too.
					me.win = s.logGen + 1
					sums[i] = me.samp
				} else {
					idCost += len(m) - 1
				}
			}
		} else {
			for i := range d.cs.roots {
				dirty = append(dirty, i)
			}
		}
		// The workers decode work[:decodes]. Under the identity L is
		// decoded after the barrier instead, and the clean components
		// are visited after the dirty ones only to fold their sums.
		zeroSum := lDirty && idCost < d.refreshCost(li)
		work, decodes := dirty, len(dirty)
		if zeroSum {
			at := slices.Index(dirty, li)
			order = append(append(append(order[:0], dirty[:at]...), dirty[at+1:]...), hits...)
			work, decodes = order, decodes-1
		}
		// A worker writes only what its component owns: the pick slot,
		// the pick-cache entry at its root and the merged-sampler entries
		// keyed by its members; and its own accumulator.
		err := parallel.ForEachWorkerOpts(p, len(work), func(w, j int) error {
			i, dw := work[j], &d.workers[w]
			sum := sums[i]
			if j < decodes {
				var err error
				if picks[i], sum, err = d.decode(i, dw); err != nil {
					return err
				}
			}
			if zeroSum {
				return d.accumulate(i, sum, dw)
			}
			return nil
		})
		if err == nil && zeroSum {
			picks[li], err = d.zeroSum(li)
		}
		if err != nil {
			if s.caching {
				// Entries synced so far are stamped for a window that
				// will not open: skip its generation so they match none.
				s.log = s.log[:0]
				s.logGen += 2
			}
			return nil, err
		}
		var sampled, unions int
		for _, pk := range picks {
			if !pk.ok {
				continue
			}
			sampled++
			if uf.Union(int(pk.a), int(pk.b)) {
				if forest == nil {
					forest = make([]graph.Edge, 0, uf.Sets()) // one edge per set the forest can still join
				}
				forest = append(forest, graph.Edge{U: int(pk.a), V: int(pk.b), W: 1}.Canon())
				unions++
			}
		}
		var st decodeStats
		for w := range d.workers {
			st.add(&d.workers[w].stats)
		}
		sp.End(
			obs.A("components", int64(k)),
			obs.A("largest", int64(lsize)),
			obs.A("dirty", int64(len(dirty))),
			obs.A("sampled", int64(sampled)),
			obs.A("sample_empty", int64(k-sampled)),
			obs.A("merges", int64(unions)),
			obs.A("cache_hit", int64(s.cacheHits-hits0)),
			obs.A("cache_miss", int64(s.cacheMisses-misses0)),
			obs.A("folds", st.folds),
			obs.A("fold_log_applied", st.logApplied),
			obs.A("refreshed", st.refreshed),
			obs.A("remerged", st.remerged),
			obs.A("zero_sum", b2i(zeroSum)),
			obs.A("zero_sum_folds", st.zeroSumFolds),
			obs.A("marks_used", marks))
		if unions == 0 {
			break
		}
	}
	if s.caching {
		s.completeQueryWindow()
	}
	return forest, nil
}

// components is one round's component state as flat arrays, rebuilt
// from the union-find by a counting sort: component i has union-find
// root roots[i] — ascending, so the serial union order is a function of
// the partition alone — and members mem[off[i]:off[i+1]], ascending;
// comp labels every vertex with its component's index.
type components struct {
	comp, slot, mem []int32 // per vertex; slot is all zero between rebuilds
	roots, off      []int32 // per component; off has one more
}

func (c *components) members(i int) []int32 { return c.mem[c.off[i]:c.off[i+1]] }

// largest returns the biggest component, the first of equal ones, and
// its size.
func (c *components) largest() (int, int32) {
	li, size := 0, int32(0)
	for i := range c.roots {
		if n := c.off[i+1] - c.off[i]; n > size {
			li, size = i, n
		}
	}
	return li, size
}

func (c *components) rebuild(uf *graph.UnionFind) {
	for v := range c.comp {
		root := int32(uf.Find(v))
		c.comp[v] = root
		c.slot[root]++
	}
	// off[i+1] starts as component i's first position and is its fill
	// cursor, so it ends as component i+1's first position.
	c.roots, c.off = c.roots[:0], append(c.off[:0], 0)
	pos := int32(0)
	for root, count := range c.slot {
		if count > 0 {
			c.slot[root] = int32(len(c.roots))
			c.roots = append(c.roots, int32(root))
			c.off = append(c.off, pos)
			pos += count
		}
	}
	for v, root := range c.comp {
		i := c.slot[root]
		c.comp[v] = i
		c.mem[c.off[i+1]] = int32(v)
		c.off[i+1]++
	}
	for _, root := range c.roots {
		c.slot[root] = 0
	}
}

// forestDecode is what the rounds of one extraction share.
type forestDecode struct {
	s       *Sketch
	r       int // current round
	cs      components
	intact  bool // the log holds every mutation since the last window opened
	workers []decodeWorker

	incOff, inc []int32 // the log by endpoint, see indexLog; built when intact
}

// decodeWorker is one decode goroutine's reusable state.
type decodeWorker struct {
	sum          sketch.L0Sampler // scratch for a component's summed sampler
	acc          sketch.L0Sampler // the round's other components' sums, when zeroSum
	accUsed      bool
	sample       sketch.SampleScratch
	hint         sketch.L0Hint
	gained, lost []int32
	stats        decodeStats
}

// decodeStats counts a round's sampler work: folds are sampler
// Merge/Sub calls, logApplied logged updates replayed into cached sums,
// zeroSumFolds the folds into and across the identity's accumulators.
type decodeStats struct {
	folds, logApplied, refreshed, remerged, zeroSumFolds int64
}

// add folds o into st and resets o for the next round.
func (st *decodeStats) add(o *decodeStats) {
	st.folds += o.folds
	st.logApplied += o.logApplied
	st.refreshed += o.refreshed
	st.remerged += o.remerged
	st.zeroSumFolds += o.zeroSumFolds
	*o = decodeStats{}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// samplePick draws a component's boundary edge from its summed sampler.
func (s *Sketch) samplePick(sum *sketch.L0Sampler, sc *sketch.SampleScratch) pick {
	key, _, ok := sum.SampleWith(sc)
	if !ok {
		return pick{}
	}
	a, b := stream.DecodePairKey(key, s.n)
	return pick{a: int32(a), b: int32(b), ok: true}
}

// decode draws dirty component i's pick and, when caching, records it.
// It also returns the sum the pick was drawn from, valid until dw's
// next decode.
func (d *forestDecode) decode(i int, dw *decodeWorker) (pick, *sketch.L0Sampler, error) {
	s, m := d.s, d.cs.members(i)
	if !s.caching {
		return d.draw(m, dw)
	}
	fresh := d.entry(i)
	var sum *sketch.L0Sampler
	if len(m) < mergeCacheMinMembers {
		pk, smp, err := d.draw(m, dw)
		if err != nil {
			return pick{}, nil, err
		}
		fresh.pick, sum = pk, smp
	} else {
		// Fold path: refresh the cached merged sampler from the update
		// log and the membership delta instead of re-merging every
		// member; failing that, re-merge it and cache the sum.
		me, err := d.refresh(i, &fresh, dw)
		if err == nil && me == nil {
			if err = d.remerge(fresh.members, dw); err == nil {
				me = d.keep(&fresh, &dw.sum)
			}
		}
		if err != nil {
			return pick{}, nil, err
		}
		fresh.pick, sum = s.samplePick(me.samp, &dw.sample), me.samp
	}
	s.picks[d.r][d.cs.roots[i]] = fresh
	return fresh.pick, sum, nil
}

// entry is the pick-cache entry a decode of component i stores: the
// entry owns its member list, copied only when the list differs from
// the one the entry already holds.
func (d *forestDecode) entry(i int) pickEntry {
	s, m := d.s, d.cs.members(i)
	e := pickEntry{members: s.picks[d.r][d.cs.roots[i]].members, genSum: s.genSumOf(d.r, m), win: s.logGen + 1}
	if !slices.Equal(e.members, m) {
		e.members = slices.Clone(m)
	}
	return e
}

// draw decodes a component from its members' samplers alone. A
// singleton's merged sampler IS its vertex sampler: it is decoded in
// place (Sample is read-only).
func (d *forestDecode) draw(m []int32, dw *decodeWorker) (pick, *sketch.L0Sampler, error) {
	sum := d.s.at(d.r, int(m[0]))
	if len(m) > 1 {
		if err := d.remerge(m, dw); err != nil {
			return pick{}, nil, err
		}
		sum = &dw.sum
	}
	return d.s.samplePick(sum, &dw.sample), sum, nil
}

// refreshCost is what largest component i costs to sum without the
// identity, in folds: its refresh's membership delta and logged
// incidences when its cached sum would be refreshed, else a re-merge.
func (d *forestDecode) refreshCost(i int) int {
	dw := &d.workers[0]
	if d.s.caching {
		if me := d.refreshable(i, dw); me != nil {
			delta := len(dw.gained) + len(dw.lost)
			for _, v := range me.members {
				delta += int(d.incOff[v+1] - d.incOff[v])
			}
			return delta
		}
	}
	return len(d.cs.members(i)) - 1
}

// accumulate folds component i's sum into the worker's accumulator:
// sum, or the members' samplers when no sum is at hand.
func (d *forestDecode) accumulate(i int, sum *sketch.L0Sampler, dw *decodeWorker) error {
	if sum != nil {
		return dw.accumulate(sum)
	}
	for _, v := range d.cs.members(i) {
		if err := dw.accumulate(d.s.at(d.r, int(v))); err != nil {
			return err
		}
	}
	return nil
}

func (dw *decodeWorker) accumulate(x *sketch.L0Sampler) error {
	dw.stats.folds++
	dw.stats.zeroSumFolds++
	if !dw.accUsed {
		dw.acc.SetTo(x)
		dw.accUsed = true
		return nil
	}
	if err := dw.acc.Merge(x); err != nil {
		return fmt.Errorf("agm: zero-sum: %w", err)
	}
	return nil
}

// zeroSum draws largest component li's pick after the round's barrier:
// its sum is minus the total of the workers' accumulators, which hold
// every other component's sum. When caching, the sum and pick are
// stored as a decode stores them.
func (d *forestDecode) zeroSum(li int) (pick, error) {
	var sum *sketch.L0Sampler
	var st *decodeStats
	for w := range d.workers {
		dw := &d.workers[w]
		if !dw.accUsed {
			continue
		}
		dw.accUsed = false
		if sum == nil {
			sum, st = &dw.acc, &dw.stats
			continue
		}
		if err := sum.Merge(&dw.acc); err != nil {
			return pick{}, fmt.Errorf("agm: zero-sum: %w", err)
		}
		st.folds++
		st.zeroSumFolds++
	}
	sum.Negate()
	s, sc := d.s, &d.workers[0].sample
	if !s.caching {
		return s.samplePick(sum, sc), nil
	}
	e := d.entry(li)
	e.pick = s.samplePick(d.keep(&e, sum).samp, sc)
	s.picks[d.r][d.cs.roots[li]] = e
	return e.pick, nil
}

// remerge sums the members' samplers into the worker's scratch.
func (d *forestDecode) remerge(m []int32, dw *decodeWorker) error {
	dw.sum.SetTo(d.s.at(d.r, int(m[0])))
	for _, v := range m[1:] {
		if err := dw.sum.Merge(d.s.at(d.r, int(v))); err != nil {
			return fmt.Errorf("agm: merge: %w", err)
		}
	}
	dw.stats.folds += int64(len(m) - 1)
	dw.stats.remerged++
	return nil
}

// keep stores sum as the merged-sampler entry of the component e was
// drawn over.
func (d *forestDecode) keep(e *pickEntry, sum *sketch.L0Sampler) *mergeEntry {
	slot := &d.s.merges[d.r][e.members[0]]
	if *slot == nil {
		*slot = &mergeEntry{samp: &sketch.L0Sampler{}}
	}
	me := *slot
	me.samp.SetTo(sum)
	me.members, me.genSum, me.win = e.members, e.genSum, e.win
	return me
}

// foldable reports whether the entry's merged sampler can be brought up
// to date from the log: it was synced as the current window opened.
func (d *forestDecode) foldable(me *mergeEntry) bool {
	return me != nil && d.intact && me.win == d.s.logGen
}

// refresh serves dirty component i's merged sampler from the cache.
// Entries are keyed by the component's minimum member (stable when the
// component gains or loses a branch across queries, unlike the
// union-find root). The refresh folds the logged updates since the
// entry's sync into the cached sum, then reconciles the membership
// delta by merging gained members' current samplers and subtracting
// lost ones — every step an exact linear cell operation, so the result
// is bit-identical to re-merging the current member samplers from
// scratch. Returns nil when no entry is usable or the delta is big
// enough that the full re-merge is cheaper.
func (d *forestDecode) refresh(i int, e *pickEntry, dw *decodeWorker) (*mergeEntry, error) {
	s, r := d.s, d.r
	me := d.refreshable(i, dw)
	if me == nil {
		return nil, nil
	}
	gained, lost := dw.gained, dw.lost
	// The entry was synced over the old member list: the component's
	// current members less the gained ones, plus the lost ones.
	comp := d.cs.comp
	d.fold(me, dw, func(v int32) bool {
		if comp[v] == int32(i) {
			return !inSorted(gained, v)
		}
		return inSorted(lost, v)
	})
	for _, v := range gained {
		if err := me.samp.Merge(s.at(r, int(v))); err != nil {
			return nil, fmt.Errorf("agm: refresh: %w", err)
		}
	}
	for _, v := range lost {
		if err := me.samp.Sub(s.at(r, int(v))); err != nil {
			return nil, fmt.Errorf("agm: refresh: %w", err)
		}
	}
	me.members, me.genSum, me.win = e.members, e.genSum, e.win
	dw.stats.folds += int64(len(gained) + len(lost))
	dw.stats.refreshed++
	return me, nil
}

// refreshable returns component i's merged-sampler entry when a refresh
// would serve it — the entry is foldable and reconciling its membership
// delta, left in dw.gained and dw.lost, beats re-merging the members —
// else nil. refreshCost prices and refresh takes the same decision.
func (d *forestDecode) refreshable(i int, dw *decodeWorker) *mergeEntry {
	m := d.cs.members(i)
	me := d.s.merges[d.r][m[0]]
	if !d.foldable(me) {
		return nil
	}
	dw.gained, dw.lost = sortedDiff(m, me.members, dw.gained[:0], dw.lost[:0])
	if len(dw.gained)+len(dw.lost)+4 >= len(m) {
		return nil
	}
	return me
}

// sortedDiff appends the elements of cur absent from old to gained and
// those of old absent from cur to lost; both inputs ascending.
func sortedDiff(cur, old, gained, lost []int32) ([]int32, []int32) {
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
	return append(gained, cur[i:]...), append(lost, old[j:]...)
}

// inSorted reports whether ascending list m contains v.
func inSorted(m []int32, v int32) bool {
	_, ok := slices.BinarySearch(m, v)
	return ok
}

// indexLog buckets the update log by endpoint: the log positions of the
// updates incident to v are inc[incOff[v]:incOff[v+1]], in log order.
func (d *forestDecode) indexLog() {
	log := d.s.log
	d.incOff = make([]int32, d.s.n+2)
	d.inc = make([]int32, 2*len(log))
	off := d.incOff[1:] // off[v+1] counts, then is v's fill cursor, then v+1's start
	for _, lu := range log {
		off[lu.a+1]++
		off[lu.b+1]++
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	for li, lu := range log {
		d.inc[off[lu.a]] = int32(li)
		off[lu.a]++
		d.inc[off[lu.b]] = int32(li)
		off[lu.b]++
	}
}

// fold replays the update log into the entry's merged sampler; in must
// be membership in me.members, the list the entry was synced over. An
// update on edge {a, b} (a < b) contributed +delta at the pair key to
// a's sampler and -delta to b's — so its contribution to the members'
// sum is +delta if a is a member, -delta if b is. Both members means
// exact cancellation: skip. Cell updates are commutative, associative,
// exact field additions, so the folded sampler is bit-identical to a
// full re-merge of the current member samplers.
func (d *forestDecode) fold(me *mergeEntry, dw *decodeWorker, in func(v int32) bool) {
	for _, v := range me.members {
		for _, li := range d.inc[d.incOff[v]:d.incOff[v+1]] {
			lu := &d.s.log[li]
			other, delta := lu.b, lu.delta
			if v == lu.b {
				other, delta = lu.a, -delta
			}
			if in(other) {
				continue
			}
			d.s.fam[d.r].Hint(lu.key, &dw.hint)
			me.samp.AddHint(lu.key, delta, &dw.hint)
			dw.stats.logApplied++
		}
	}
}

// completeQueryWindow runs after each cached extraction: the log is
// cleared and the next fold window opens, the one every entry synced by
// this extraction is stamped for — so the fold backlog never spans more
// than one update batch for live handles that query after every Apply.
// Merged-sampler entries that missed two consecutive windows (their
// component vanished or shrank below the threshold) are swept
// periodically.
func (s *Sketch) completeQueryWindow() {
	s.logGen++
	s.log = s.log[:0]
	s.winEpoch = s.epoch
	if s.logGen%32 == 0 {
		for _, row := range s.merges {
			for v, me := range row {
				if me != nil && me.win+2 < s.logGen {
					row[v] = nil
				}
			}
		}
	}
}
