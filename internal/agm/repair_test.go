package agm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dynstream/internal/parallel"
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
					var batch []stream.Update
					for i := 1 + rng.Intn(n); i > 0; i-- {
						if len(present) > 0 && rng.Intn(2) == 0 {
							k := rng.Intn(len(present))
							e := present[k]
							present[k] = present[len(present)-1]
							present = present[:len(present)-1]
							batch = append(batch, stream.Update{U: e[0], V: e[1], Delta: -1, W: 1})
						} else if u, v := rng.Intn(n), rng.Intn(n); u != v {
							present = append(present, [2]int{u, v})
							batch = append(batch, stream.Update{U: u, V: v, Delta: 1, W: 1})
						}
					}
					s.AddBatch(batch)
					if grouped && rng.Intn(4) == 0 {
						groups = nil
						perm := rng.Perm(n)[:n/2]
						for len(perm) > 0 {
							k := min(1+rng.Intn(4), len(perm))
							groups, perm = append(groups, perm[:k]), perm[k:]
						}
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
