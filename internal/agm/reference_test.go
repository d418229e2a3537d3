package agm

import (
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
// from its members' samplers on every query — no cached pick or merged
// sampler is ever served. It reads the sketch's samplers and never
// mutates the sketch. Alongside the forest it models the pick cache's
// classification rule: a (round, union-find root) is a hit when the
// previous decode stored there drew over the same member list at the
// same generation sum.
type refDecoder struct {
	picks []map[int]refPick // per round, by union-find root
}

type refPick struct {
	members []int
	genSum  uint64
}

// reset forgets every stored decode, as EnableDecodeCache(false) and
// UnmarshalBinary do.
func (d *refDecoder) reset() { d.picks = nil }

func (d *refDecoder) forest(s *Sketch, groups [][]int) (forest []graph.Edge, hits, misses uint64, err error) {
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
			var genSum uint64
			for _, v := range m {
				genSum += s.at(r, v).Gen()
			}
			if e, ok := d.picks[r][root]; ok && e.genSum == genSum && slices.Equal(e.members, m) {
				hits++
			} else {
				misses++
				d.picks[r][root] = refPick{members: m, genSum: genSum}
			}
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
