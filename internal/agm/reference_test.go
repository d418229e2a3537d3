package agm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"dynstream/internal/graph"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// refDecoder is the map-based Borůvka decode SpanningForestOpts ran
// before its component state went flat, kept as the reference the flat
// decode is compared with: membership is a map from union-find root to
// an ascending member list that is list-merged on every union, roots are
// sorted once and filtered per round, and every component is re-merged
// from its members' samplers on every query — no cached pick is ever
// served. It reads the sketch's samplers and never mutates the sketch.
//
// Alongside the forest it models the pick cache's classification rule,
// the level rule, from its own record of what the test applied and
// merged (applied, merged), not from the sketch's update log: a (round,
// union-find root) is a hit when the previous decode reached the round
// and stored or served a pick there over the same member list, the
// recorded writes did not overflow the sketch's log, no vertex merged
// since is a member, and every update applied since with exactly one
// endpoint among the members has a geometric level in the round's
// family (L0Family.Hint) below the level the stored pick's draw decoded
// at. A hit's member sum must still hold, at that level and above, the
// bytes it held when the pick was stored, and its draw must return the
// stored pick at the stored level.
type refDecoder struct {
	picks  []map[int]refPick // per round, by union-find root
	query  int               // decodes so far
	ups    [][2]int          // updates applied since the last decode, a < b
	joined map[int]bool      // vertices merged since the last decode
	logged int               // log entries those writes took
}

type refPick struct {
	members []int
	query   int    // the decode that last stored or served the pick
	pick    [2]int // the draw's edge, {-1, -1} for none
	level   int    // the level the draw decoded at
	enc     []byte // the member sum's levels >= level when it was stored
}

// reset forgets every stored decode, as EnableDecodeCache(false) and
// UnmarshalBinary do.
func (d *refDecoder) reset() { d.picks = nil }

// applied records a batch applied to the sketch: each update that is
// not a self-loop or a zero delta takes one log entry.
func (d *refDecoder) applied(batch []stream.Update) {
	for _, u := range batch {
		if u.U != u.V && u.Delta != 0 {
			d.ups = append(d.ups, [2]int{min(u.U, u.V), max(u.U, u.V)})
			d.logged++
		}
	}
}

// merged records a Merge of a sketch fed batch: each vertex whose
// incidence vector in batch is not zero takes one log entry.
func (d *refDecoder) merged(batch []stream.Update) {
	net := map[[2]int]int{}
	for _, u := range batch {
		if u.U != u.V {
			net[[2]int{min(u.U, u.V), max(u.U, u.V)}] += u.Delta
		}
	}
	seen := map[int]bool{}
	for e, m := range net {
		if m != 0 {
			seen[e[0]], seen[e[1]] = true, true
		}
	}
	if d.joined == nil {
		d.joined = map[int]bool{}
	}
	for v := range seen {
		d.joined[v] = true
		d.logged++
	}
}

// reaches reports whether an update recorded since the last decode
// crosses the boundary of members (in, its indicator) at or above level
// in round r's family.
func (d *refDecoder) reaches(s *Sketch, r int, in map[int]bool, level int) bool {
	var h sketch.L0Hint
	for _, e := range d.ups {
		if in[e[0]] != in[e[1]] {
			if s.fam[r].Hint(stream.PairKey(e[0], e[1], s.n), &h); h.Level() >= level {
				return true
			}
		}
	}
	return false
}

// levelsFrom returns the encoded blocks of sampler levels level and up,
// read off its wire form: the header (tag, seed, universe, perLevel,
// level count) and then one length-prefixed block per level, zero-length
// for an all-zero one.
func levelsFrom(sm *sketch.L0Sampler, level int) ([]byte, error) {
	enc, err := sm.MarshalBinary()
	if err != nil {
		return nil, err
	}
	corrupt := errors.New("reference: unreadable sampler encoding")
	r := wire.NewReader(enc, corrupt)
	r.U64()
	r.U64()
	r.U64()
	r.Uvarint()
	levels := r.Uvarint()
	w := &wire.Writer{}
	for j := uint64(0); j < levels; j++ {
		if b := r.SketchBlock(); j >= uint64(level) {
			w.Block(b)
		}
	}
	return w.Bytes(), r.Done()
}

func (d *refDecoder) forest(s *Sketch, groups [][]int) (forest []graph.Edge, hits, misses uint64, err error) {
	// A log that outgrew its budget (Sketch.logUpdate) voids every pick.
	overflow := d.logged > 4*s.n+1024
	prev := d.query
	defer func() { d.ups, d.joined, d.logged = d.ups[:0], nil, 0 }()
	d.query++
	uf := graph.NewUnionFind(s.n)
	for _, grp := range groups {
		for _, v := range grp {
			uf.Union(grp[0], v)
		}
	}
	members := map[int][]int{}
	for v := 0; v < s.n; v++ {
		root := uf.Find(v)
		members[root] = append(members[root], v)
	}
	roots := make([]int, 0, len(members))
	for root := range members {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	if d.picks == nil {
		d.picks = make([]map[int]refPick, s.rounds)
	}
	type found struct {
		a, b int
		ok   bool
	}
	for r := 0; r < s.rounds; r++ {
		if uf.Sets() == 1 {
			break
		}
		k := 0
		for _, root := range roots {
			if _, ok := members[root]; ok {
				roots[k] = root
				k++
			}
		}
		roots = roots[:k]
		if d.picks[r] == nil {
			d.picks[r] = map[int]refPick{}
		}
		picks := make([]found, len(roots))
		for i, root := range roots {
			m := members[root]
			sc := &sketch.L0Sampler{}
			sc.SetTo(s.at(r, m[0]))
			for _, v := range m[1:] {
				if err := sc.Merge(s.at(r, v)); err != nil {
					return nil, 0, 0, fmt.Errorf("reference merge: %w", err)
				}
			}
			var scratch sketch.SampleScratch
			pick := [2]int{-1, -1}
			if key, _, ok := sc.SampleWith(&scratch); ok {
				a, b := stream.DecodePairKey(key, s.n)
				picks[i] = found{a: a, b: b, ok: true}
				pick = [2]int{a, b}
			}
			in := map[int]bool{}
			for _, v := range m {
				in[v] = true
			}
			e, ok := d.picks[r][root]
			if ok && e.query == prev && !overflow && slices.Equal(e.members, m) &&
				!slices.ContainsFunc(m, func(v int) bool { return d.joined[v] }) &&
				!d.reaches(s, r, in, e.level) {
				hits++
				enc, err := levelsFrom(sc, e.level)
				if err != nil {
					return nil, 0, 0, err
				}
				if !bytes.Equal(e.enc, enc) {
					return nil, 0, 0, fmt.Errorf("round %d: a hit over component %v, whose sum changed at level %d or above since its pick was stored", r, m, e.level)
				}
				if pick != e.pick || scratch.Level != e.level {
					return nil, 0, 0, fmt.Errorf("round %d: a hit over component %v draws %v at level %d, stored %v at level %d", r, m, pick, scratch.Level, e.pick, e.level)
				}
				e.query = d.query
			} else {
				misses++
				enc, err := levelsFrom(sc, scratch.Level)
				if err != nil {
					return nil, 0, 0, err
				}
				e = refPick{members: m, query: d.query, pick: pick, level: scratch.Level, enc: enc}
			}
			d.picks[r][root] = e
		}
		progress := false
		for _, pk := range picks {
			if !pk.ok {
				continue
			}
			ra, rb := uf.Find(pk.a), uf.Find(pk.b)
			if ra == rb {
				continue
			}
			uf.Union(pk.a, pk.b)
			root := uf.Find(pk.a)
			merged := refMergeSortedInts(members[ra], members[rb])
			delete(members, ra)
			delete(members, rb)
			members[root] = merged
			forest = append(forest, graph.Edge{U: pk.a, V: pk.b, W: 1}.Canon())
			progress = true
		}
		if !progress {
			break
		}
	}
	return forest, hits, misses, nil
}

// refMergeSortedInts merges two ascending duplicate-free lists into one.
func refMergeSortedInts(a, b []int) []int {
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
