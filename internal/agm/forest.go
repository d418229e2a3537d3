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
// SpanningForest: the policy supplies cancellation and the tracer, and
// its worker count is not read. Within each round every dirty component
// draws one boundary edge from the sum of its samplers, summing only
// the levels the draw reads, on the calling goroutine with one reusable
// scratch — a draw costs microseconds, less than a goroutine hand-off —
// and the context is checked before each draw.
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
	}
	// Per-component pick of the current round, indexed by sorted-root
	// position.
	picks := make([]pick, k0)
	dirty := make([]int, 0, k0)
	var touched []bool
	if s.caching {
		touched = make([]bool, k0)
		if s.picks == nil {
			s.picks = make([][]pickEntry, s.rounds)
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
		lsize := d.cs.largest()
		hits0, misses0 := s.cacheHits, s.cacheMisses
		picks, dirty = picks[:k], dirty[:0]
		// Cache pass: a component whose member list matches the previous
		// extraction's and which no logged mutation touched decodes to
		// the same pick; only the dirty subset is drawn.
		if s.caching {
			if s.picks[r] == nil {
				s.picks[r] = make([]pickEntry, s.n)
			}
			clear(touched[:k])
			for _, lu := range s.log {
				touched[d.cs.comp[lu.a]] = true
				touched[d.cs.comp[lu.b]] = true
			}
			for i, root := range d.cs.roots {
				e := &s.picks[r][root]
				if e.win == s.logGen && !touched[i] && slices.Equal(e.members, d.cs.members(i)) {
					s.cacheHits++
					e.win = s.logGen + 1
					picks[i] = e.pick
					continue
				}
				s.cacheMisses++
				dirty = append(dirty, i)
			}
		} else {
			for i := range d.cs.roots {
				dirty = append(dirty, i)
			}
		}
		var err error
		for _, i := range dirty {
			if err = p.Context().Err(); err != nil {
				break
			}
			if picks[i], err = d.decode(i); err != nil {
				break
			}
		}
		if err != nil {
			if s.caching {
				// Entries synced so far are stamped for a window that
				// will not open: skip its number so they match none.
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
		folds := d.sample.Blocks
		d.sample.Blocks = 0
		sp.End(
			obs.A("components", int64(k)),
			obs.A("largest", int64(lsize)),
			obs.A("dirty", int64(len(dirty))),
			obs.A("sampled", int64(sampled)),
			obs.A("sample_empty", int64(k-sampled)),
			obs.A("merges", int64(unions)),
			obs.A("cache_hit", int64(s.cacheHits-hits0)),
			obs.A("cache_miss", int64(s.cacheMisses-misses0)),
			obs.A("folds", folds))
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

// largest returns the size of the biggest component.
func (c *components) largest() int32 {
	size := int32(0)
	for i := range c.roots {
		size = max(size, c.off[i+1]-c.off[i])
	}
	return size
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

// forestDecode is what the rounds of one extraction share: the
// component state, the member samplers of the component being drawn,
// and SampleSum's scratch, whose Blocks count the round's folds.
type forestDecode struct {
	s       *Sketch
	r       int // current round
	cs      components
	members []*sketch.L0Sampler
	sample  sketch.SampleScratch
}

// decode draws dirty component i's pick from the sum of its members'
// samplers and, when caching, records it.
func (d *forestDecode) decode(i int) (pick, error) {
	s, m := d.s, d.cs.members(i)
	d.members = d.members[:0]
	for _, v := range m {
		d.members = append(d.members, s.at(d.r, int(v)))
	}
	key, _, ok, err := sketch.SampleSum(d.members, &d.sample)
	if err != nil {
		return pick{}, fmt.Errorf("agm: merge: %w", err)
	}
	var pk pick
	if ok {
		a, b := stream.DecodePairKey(key, s.n)
		pk = pick{a: int32(a), b: int32(b), ok: true}
	}
	if s.caching {
		// The entry owns its member list, copied only when the list
		// differs from the one the entry already holds.
		e := &s.picks[d.r][d.cs.roots[i]]
		if !slices.Equal(e.members, m) {
			e.members = slices.Clone(m)
		}
		e.win, e.pick = s.logGen+1, pk
	}
	return pk, nil
}

// completeQueryWindow runs after each cached extraction: the log is
// cleared and the next window opens, the one every entry validated or
// stored by this extraction is stamped for.
func (s *Sketch) completeQueryWindow() {
	s.logGen++
	s.log = s.log[:0]
}
