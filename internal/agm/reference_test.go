package agm

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"dynstream/internal/graph"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// refDecoder is the map-based Borůvka decode SpanningForestOpts ran
// before its component state went flat, kept as the reference the flat
// decode is compared with: membership is a map from union-find root to
// an ascending member list that is list-merged on every union, roots are
// sorted once and filtered per round, and every component is re-merged
// from its members' samplers on every query — no cached pick is ever
// served. It reads the sketch's samplers and never mutates the sketch.
//
// Alongside the forest it models the pick cache's classification rule
// from its own record of what the test applied and merged (applied,
// merged), not from the sketch's update log: a (round, union-find root)
// is a hit when the previous decode reached the round and stored or
// served a pick there over the same member list, no endpoint recorded
// since is a member, and the recorded writes did not overflow the
// sketch's log. A hit's members must still encode to the bytes they
// had when its pick was stored.
type refDecoder struct {
	picks   []map[int]refPick // per round, by union-find root
	query   int               // decodes so far
	touched map[int]bool      // endpoints applied or merged since the last decode
	logged  int               // log entries those writes took
}

type refPick struct {
	members []int
	query   int    // the decode that last stored or served the pick
	enc     []byte // the members' samplers of the round when it was stored
}

// reset forgets every stored decode, as EnableDecodeCache(false) and
// UnmarshalBinary do.
func (d *refDecoder) reset() { d.picks = nil }

// applied records a batch applied to the sketch: each update that is
// not a self-loop or a zero delta takes one log entry.
func (d *refDecoder) applied(batch []stream.Update) {
	for _, u := range batch {
		if u.U != u.V && u.Delta != 0 {
			d.touch(u.U, u.V)
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
	for v := range seen {
		d.touch(v)
		d.logged++
	}
}

func (d *refDecoder) touch(vs ...int) {
	if d.touched == nil {
		d.touched = map[int]bool{}
	}
	for _, v := range vs {
		d.touched[v] = true
	}
}

// encode concatenates the encodings of the members' round-r samplers.
func encode(s *Sketch, r int, members []int) ([]byte, error) {
	var out []byte
	for _, v := range members {
		enc, err := s.at(r, v).MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	return out, nil
}

func (d *refDecoder) forest(s *Sketch, groups [][]int) (forest []graph.Edge, hits, misses uint64, err error) {
	// A log that outgrew its budget (Sketch.logUpdate) voids every pick.
	overflow := d.logged > 4*s.n+1024
	touched, prev := d.touched, d.query
	d.touched, d.logged = nil, 0
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
			enc, err := encode(s, r, m)
			if err != nil {
				return nil, 0, 0, err
			}
			e, ok := d.picks[r][root]
			if ok && e.query == prev && !overflow && slices.Equal(e.members, m) &&
				!slices.ContainsFunc(m, func(v int) bool { return touched[v] }) {
				hits++
				if !bytes.Equal(e.enc, enc) {
					return nil, 0, 0, fmt.Errorf("round %d: a hit over component %v, whose samplers changed since its pick was stored", r, m)
				}
				e.query = d.query
			} else {
				misses++
				e = refPick{members: m, query: d.query, enc: enc}
			}
			d.picks[r][root] = e
			sc := &sketch.L0Sampler{}
			sc.SetTo(s.at(r, m[0]))
			for _, v := range m[1:] {
				if err := sc.Merge(s.at(r, v)); err != nil {
					return nil, 0, 0, fmt.Errorf("reference merge: %w", err)
				}
			}
			if key, _, ok := sc.Sample(); ok {
				a, b := stream.DecodePairKey(key, s.n)
				picks[i] = found{a: a, b: b, ok: true}
			}
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
