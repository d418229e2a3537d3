package agm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

// TestRequeryRepairedTraceMatchesFull checks the repaired trace itself,
// not only the forest it yields: after every re-query of a live sketch,
// every level's roots, ranks and kid lists, every decoded round's picks,
// root labels and merge records equal the trace a first query over the
// same samplers builds (a restored copy). A rank or a label the repair
// got wrong may not move this query's forest, but it moves a later one.
// Small graphs with random churn and regrouping split and merge
// components on almost every step.
func TestRequeryRepairedTraceMatchesFull(t *testing.T) {
	seeds := int64(15)
	if testing.Short() {
		seeds = 8
	}
	for _, n := range []int{5, 9, 16, 40} {
		for _, grouped := range []bool{false, true} {
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(100*seed + int64(n)))
				s := New(uint64(seed), n, Config{})
				s.EnableDecodeCache(true)
				var present [][2]int
				var groups [][]int
				for step := 0; step < 40; step++ {
					s.AddBatch(churnBatch(rng, n, 1+rng.Intn(n), &present))
					if grouped && rng.Intn(4) == 0 {
						groups = randomGroups(rng, n)
					}
					ctx := fmt.Sprintf("n=%d grouped=%v seed=%d step %d", n, grouped, seed, step)
					if _, err := s.SpanningForestOpts(groups, parallel.Default()); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					blob, err := s.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					full := &Sketch{}
					if err := full.UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
					full.EnableDecodeCache(true)
					if _, err := full.SpanningForestOpts(groups, parallel.Default()); err != nil {
						t.Fatalf("%s: full: %v", ctx, err)
					}
					if diff := traceDiff(s.trace, full.trace); diff != "" {
						t.Fatalf("%s: repaired trace differs from a full decode's: %s", ctx, diff)
					}
				}
			}
		}
	}
}

// churnBatch draws size updates over n vertices, keeping present, the
// edges inserted and not yet deleted: each deletes a random present edge
// half the time (when there is one) and otherwise inserts a random edge,
// skipping a self-loop draw.
func churnBatch(rng *rand.Rand, n, size int, present *[][2]int) []stream.Update {
	var batch []stream.Update
	for ; size > 0; size-- {
		if p := *present; len(p) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(p))
			e := p[k]
			p[k] = p[len(p)-1]
			*present = p[:len(p)-1]
			batch = append(batch, stream.Update{U: e[0], V: e[1], Delta: -1, W: 1})
		} else if u, v := rng.Intn(n), rng.Intn(n); u != v {
			*present = append(p, [2]int{u, v})
			batch = append(batch, stream.Update{U: u, V: v, Delta: 1, W: 1})
		}
	}
	return batch
}

// randomGroups collapses a random half of n vertices into groups of one
// to four.
func randomGroups(rng *rand.Rand, n int) [][]int {
	var groups [][]int
	perm := rng.Perm(n)[:n/2]
	for len(perm) > 0 {
		k := min(1+rng.Intn(4), len(perm))
		groups, perm = append(groups, perm[:k]), perm[k:]
	}
	return groups
}

// traceDiff says where two traces of the same samplers differ, or
// returns "".
func traceDiff(got, want *forestDecode) string {
	if got.depth != want.depth {
		return fmt.Sprintf("%d rounds decoded, want %d", got.depth, want.depth)
	}
	if !slices.Equal(got.lab0, want.lab0) {
		return "partition 0 labels"
	}
	for l := 0; l <= want.depth; l++ {
		g, w := &got.lv[l], &want.lv[l]
		if g.count != w.count || !slices.Equal(g.bits, w.bits) {
			return fmt.Sprintf("level %d: roots differ (%d, want %d)", l, g.count, w.count)
		}
		for wi, word := range w.bits {
			for ; word != 0; word &= word - 1 {
				x := int32(wi<<6 + bits.TrailingZeros64(word))
				if g.rank[x] != w.rank[x] {
					return fmt.Sprintf("level %d root %d: rank %d, want %d", l, x, g.rank[x], w.rank[x])
				}
				if l > 0 && !slices.Equal(g.kidsOf(x), w.kidsOf(x)) {
					return fmt.Sprintf("level %d root %d: kids %v, want %v", l, x, g.kidsOf(x), w.kidsOf(x))
				}
				if l < want.depth && (g.up[x] != w.up[x] || g.pick[x] != w.pick[x]) {
					return fmt.Sprintf("round %d root %d: up %d pick %x, want %d %x", l, x, g.up[x], g.pick[x], w.up[x], w.pick[x])
				}
			}
		}
		if l < want.depth && !slices.Equal(g.rec, w.rec) {
			return fmt.Sprintf("round %d: merge records %v, want %v", l, g.rec, w.rec)
		}
	}
	return ""
}

// TestRequeryWorkScalesWithChurn counts, rather than times, what a
// warmed re-query does at n and at 4n under the same churn per query:
// the partition roots whose union it recomputes (the rounds' region
// attribute) and the components it redraws (dirty), summed over the
// rounds and the queries. A decode that rebuilds every partition
// visits all n vertices in every round and grows 4×; a repair pays for
// the churn, and each sum may at most double. The members a redrawn
// giant component sums still grow with n.
func TestRequeryWorkScalesWithChurn(t *testing.T) {
	n := 2500
	if testing.Short() {
		n = 1000
	}
	const perQuery, warm, queries = 56, 4, 6
	work := func(n int) (region, dirty int64) {
		preload, churn := serveShape(n, 2*n, 2*n, (warm+queries)*perQuery/2, 11)
		s := New(5, n, Config{})
		s.EnableDecodeCache(true)
		s.AddBatch(preload)
		for q := 0; q < warm+queries; q++ {
			rs := &roundSpans{}
			if _, err := s.SpanningForestOpts(nil, rs.policy(parallel.Default())); err != nil {
				t.Fatal(err)
			}
			if q >= warm {
				for _, r := range rs.rounds {
					if _, ok := r["region"]; !ok {
						t.Fatal("the round spans carry no region attribute")
					}
					region += r["region"]
					dirty += r["dirty"]
				}
			}
			s.AddBatch(churn[:perQuery])
			churn = churn[perQuery:]
		}
		return region, dirty
	}
	r1, d1 := work(n)
	r4, d4 := work(4 * n)
	t.Logf("n = %d → %d: region %d → %d, dirty %d → %d over %d queries", n, 4*n, r1, r4, d1, d4, queries)
	if r4 > 2*r1 || d4 > 2*d1 {
		t.Errorf("at 4n the re-query recomputes %d region roots and redraws %d components, at n %d and %d: more than double",
			r4, d4, r1, d1)
	}
}

// TestRequeryLevelSkipKeepsPick checks the level rule by which a
// repaired round keeps a draw the update log names. Before each
// re-query of churned, merged and regrouped sketches it snapshots the
// trace; after it, for every repaired round, it lists the components
// the rule must keep, computed from the test's own record of the
// batches (refDecoder: the updates' levels by L0Family.Hint, the
// vertices merged): the trace's roots with the trace's members that a
// recorded endpoint lies in, holding no merged vertex, and crossed by
// no recorded update at or above the level their stored draw decoded
// at. The round's level_kept attribute must count exactly those, and
// each must keep its stored pick and level, which a fresh SampleSum
// over its members must return. Redrawing a component whose
// boundary no update crossed (an update inside it only) counts too few;
// keeping one crossed at exactly its level counts too many.
func TestRequeryLevelSkipKeepsPick(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 3
	}
	type round struct {
		members map[int32][]int // by root
		pick    []uint64
		at      []uint8
	}
	// partition returns round l's components of s's trace, by root.
	partition := func(s *Sketch, l int) map[int32][]int {
		comps := map[int32][]int{}
		for v := 0; v < s.n; v++ {
			x := s.trace.rootOf(int32(v), l)
			comps[x] = append(comps[x], v)
		}
		return comps
	}
	var kept, checked int
	for _, n := range []int{5, 12, 30, 200} {
		for _, grouped := range []bool{false, true} {
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(7*seed + int64(n)))
				s := New(uint64(seed), n, Config{})
				s.EnableDecodeCache(true)
				ref := &refDecoder{}
				var present [][2]int
				var groups [][]int
				churn := func(size int) []stream.Update { return churnBatch(rng, n, size, &present) }
				batch := churn(2 * n)
				s.AddBatch(batch)
				for step := 0; step < 30; step++ {
					ctx := fmt.Sprintf("n=%d grouped=%v seed=%d step %d", n, grouped, seed, step)
					var old []round
					if d := s.trace; d != nil && d.depth >= 0 && d.gen == s.logGen {
						for l := 0; l < d.depth; l++ {
							lv := &d.lv[l]
							old = append(old, round{partition(s, l), slices.Clone(lv.pick), slices.Clone(lv.at)})
						}
					}
					rs := &roundSpans{}
					if _, err := s.SpanningForestOpts(groups, rs.policy(parallel.Default())); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					d := s.trace
					for l := 0; l < min(len(old), d.depth); l++ {
						o, lv := &old[l], &d.lv[l]
						named := map[int]bool{}
						for _, e := range ref.ups {
							named[e[0]], named[e[1]] = true, true
						}
						want := 0
						for x, m := range partition(s, l) {
							if !slices.Equal(o.members[x], m) ||
								!slices.ContainsFunc(m, func(v int) bool { return named[v] }) ||
								slices.ContainsFunc(m, func(v int) bool { return ref.joined[v] }) {
								continue
							}
							in := map[int]bool{}
							for _, v := range m {
								in[v] = true
							}
							if ref.reaches(s, l, in, int(o.at[x])) {
								continue
							}
							want++
							if lv.pick[x] != o.pick[x] || lv.at[x] != o.at[x] {
								t.Fatalf("%s: round %d component %v: kept pick %x at level %d became %x at %d",
									ctx, l, m, o.pick[x], o.at[x], lv.pick[x], lv.at[x])
							}
							members := make([]*sketch.L0Sampler, len(m))
							for i, v := range m {
								members[i] = s.at(l, v)
							}
							var sc sketch.SampleScratch
							key, _, ok, err := sketch.SampleSum(members, &sc)
							if err != nil {
								t.Fatal(err)
							}
							pk := noPick
							if ok {
								a, b := stream.DecodePairKey(key, n)
								pk = uint64(a)<<32 | uint64(b)
							}
							if pk != lv.pick[x] || sc.Level != int(lv.at[x]) {
								t.Fatalf("%s: round %d component %v kept pick %x at level %d; a fresh draw returns %x at level %d",
									ctx, l, m, lv.pick[x], lv.at[x], pk, sc.Level)
							}
						}
						if got := rs.rounds[l]["level_kept"]; got != int64(want) {
							t.Fatalf("%s: round %d kept %d components' draws, the level rule keeps %d", ctx, l, got, want)
						}
						kept += want
						checked++
					}
					ref.ups, ref.joined, ref.logged = ref.ups[:0], nil, 0

					switch rng.Intn(6) {
					case 0:
						// A merge: every vertex it changes is dirty whatever
						// the levels.
						batch = churn(1 + rng.Intn(4))
						other := New(uint64(seed), n, Config{})
						other.AddBatch(batch)
						if err := s.Merge(other); err != nil {
							t.Fatal(err)
						}
						ref.merged(batch)
					case 1:
						if grouped {
							groups = randomGroups(rng, n)
						}
						fallthrough
					default:
						batch = churn(1 + rng.Intn(max(2, n/4)))
						s.AddBatch(batch)
						ref.applied(batch)
					}
				}
			}
		}
	}
	t.Logf("%d repaired rounds checked, %d draws kept by the level rule", checked, kept)
	if kept == 0 {
		t.Fatal("the level rule kept no draw: the test exercised nothing")
	}
}
