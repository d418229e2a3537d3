package agm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// forestsEqual compares two forests edge for edge.
func forestsEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpanningForestCacheBitIdentical interleaves edge churn with
// extractions and checks that a cache-enabled sketch returns exactly
// the forest a cold cache-free twin extracts, at several worker
// counts.
func TestSpanningForestCacheBitIdentical(t *testing.T) {
	const n = 80
	const seed = 421
	live := New(seed, n, Config{})
	live.EnableDecodeCache(true)
	cold := New(seed, n, Config{})

	rng := rand.New(rand.NewSource(7))
	type edge struct{ u, v int }
	var present []edge
	apply := func(u, v int, d int64) {
		live.AddEdge(u, v, d)
		cold.AddEdge(u, v, d)
	}
	for i := 0; i < 150; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		apply(u, v, 1)
		present = append(present, edge{u, v})
	}

	for round := 0; round < 6; round++ {
		for _, workers := range []int{1, 2, 4} {
			p := parallel.Default().WithWorkers(workers)
			got, err := live.SpanningForestOpts(nil, p)
			if err != nil {
				t.Fatalf("round %d workers %d: live: %v", round, workers, err)
			}
			want, err := cold.SpanningForestOpts(nil, p)
			if err != nil {
				t.Fatalf("round %d workers %d: cold: %v", round, workers, err)
			}
			if !forestsEqual(got, want) {
				t.Fatalf("round %d workers %d: cached forest diverged:\n got %v\nwant %v",
					round, workers, got, want)
			}
		}
		// Churn: delete a few present edges, insert a few new ones.
		for j := 0; j < 3 && len(present) > 0; j++ {
			k := rng.Intn(len(present))
			e := present[k]
			present = append(present[:k], present[k+1:]...)
			apply(e.u, e.v, -1)
		}
		for j := 0; j < 3; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			apply(u, v, 1)
			present = append(present, edge{u, v})
		}
	}
}

// TestSpanningForestCacheReuse checks the cache actually hits: an
// unchanged sketch re-extracts without any fresh component decodes
// (observable as zero generation churn and an identical result), and
// a single-edge churn re-decodes only a few components.
func TestSpanningForestCacheReuse(t *testing.T) {
	const n = 60
	s := New(9, n, Config{})
	s.EnableDecodeCache(true)
	for v := 1; v < n; v++ {
		s.AddEdge(v-1, v, 1) // path graph
	}
	first, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.cachedPickCount() == 0 {
		t.Fatal("no picks cached")
	}
	cached := s.cachedPickCount()
	again, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsEqual(first, again) {
		t.Fatalf("re-query diverged: %v vs %v", first, again)
	}
	if got := s.cachedPickCount(); got != cached {
		t.Fatalf("re-query of unchanged sketch re-decoded: %d cached picks, was %d", got, cached)
	}
}

// TestCertificateRepeatable pins the delta-subtraction fix: repeated
// Certificate calls on the same state return identical forests
// (the old destructive extraction double-subtracted on the second
// call), and certificates survive interleaved updates.
func TestCertificateRepeatable(t *testing.T) {
	const n = 40
	kc := NewKConnectivity(11, n, 3)
	kc.EnableDecodeCache(true)
	for v := 1; v < n; v++ {
		kc.AddEdge(v-1, v, 1)
		kc.AddEdge((v*7)%n, v, 1)
	}
	first, err := kc.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	second, err := kc.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("certificate forest count changed: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if !forestsEqual(first[i], second[i]) {
			t.Fatalf("forest %d diverged on re-query:\n got %v\nwant %v", i, second[i], first[i])
		}
	}

	// Fresh twin must agree after the same total stream, even though
	// kc has been queried (and so has folded subtractions in and out).
	kc.AddEdge(0, n/2, 1)
	twin := NewKConnectivity(11, n, 3)
	for v := 1; v < n; v++ {
		twin.AddEdge(v-1, v, 1)
		twin.AddEdge((v*7)%n, v, 1)
	}
	twin.AddEdge(0, n/2, 1)
	got, err := kc.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !forestsEqual(got[i], want[i]) {
			t.Fatalf("forest %d diverged from cold twin:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

// TestRequeryModelEquivalence drives a cache-enabled sketch through
// seeded random interleavings of everything that can happen between two
// queries — update batches of every size class, batches that cancel to
// zero, Merge, the caches released and re-enabled, the cache switched
// off and on, a marshal round trip, a log overflow, mass deletions and
// insertions that move the round the decode stops at — and after every
// step checks the
// cached forest, edge for edge and in order, against the map-based
// reference decode of the same samplers and against a twin sketch that
// never cached anything; every few steps also against a fresh sketch fed
// the whole prefix. The cache pass must classify every (round,
// component) as the reference's rule does, and every hit must be served
// over unchanged samplers.
func TestRequeryModelEquivalence(t *testing.T) {
	for _, c := range []struct {
		n, steps int
		workers  []int
		seed     int64
	}{
		{64, 60, []int{1, 2}, 64},
		{1000, 24, []int{1, 2}, 1000},
		// Up to three decode workers.
		{400, 24, []int{1, 2, 3}, 40},
	} {
		for _, grouped := range []bool{false, true} {
			for _, workers := range c.workers {
				name := fmt.Sprintf("n=%d/groups=%v/workers=%d", c.n, grouped, workers)
				t.Run(name, func(t *testing.T) {
					steps := c.steps
					if testing.Short() {
						steps /= 3
					}
					requeryModelRun(t, c.n, grouped, workers, steps, c.seed+int64(workers))
				})
			}
		}
	}
	// Small graphs, many seeds: components split and merge on almost
	// every step, so a repair meets a component that kept its members
	// but not its rank, one that vanished, and picks that changed on
	// both sides of a round.
	for _, n := range []int{5, 12, 30} {
		for _, grouped := range []bool{false, true} {
			for seed := int64(1); seed <= 20; seed++ {
				t.Run(fmt.Sprintf("n=%d/groups=%v/seed=%d", n, grouped, seed), func(t *testing.T) {
					steps := 45
					if testing.Short() {
						steps /= 3
					}
					requeryModelRun(t, n, grouped, 1, steps, 1000*int64(n)+seed)
				})
			}
		}
	}
}

// requeryModelRun is one seeded run of TestRequeryModelEquivalence.
func requeryModelRun(t *testing.T, n int, grouped bool, workers, steps int, seed int64) {
	const sketchSeed = 77
	rng := rand.New(rand.NewSource(seed))
	p := parallel.Default().WithWorkers(workers)
	live := New(sketchSeed, n, Config{})
	live.EnableDecodeCache(true)
	twin := New(sketchSeed, n, Config{})
	ref := &refDecoder{}
	caching := true

	var prefix []stream.Update
	type edge struct{ u, v int }
	var present []edge
	insert := func(batch []stream.Update) []stream.Update {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (u + 1) % n
		}
		present = append(present, edge{u, v})
		return append(batch, stream.Update{U: u, V: v, Delta: 1, W: 1})
	}
	remove := func(batch []stream.Update) []stream.Update {
		if len(present) == 0 {
			return batch
		}
		k := rng.Intn(len(present))
		e := present[k]
		present[k] = present[len(present)-1]
		present = present[:len(present)-1]
		return append(batch, stream.Update{U: e.u, V: e.v, Delta: -1, W: 1})
	}
	churn := func(size int) []stream.Update {
		var batch []stream.Update
		for len(batch) < size {
			if rng.Intn(2) == 0 {
				batch = insert(batch)
			} else {
				batch = remove(batch)
			}
		}
		return batch
	}
	apply := func(batch []stream.Update) {
		live.AddBatch(batch)
		twin.AddBatch(batch)
		ref.applied(batch)
		prefix = append(prefix, batch...)
	}
	var groups [][]int
	regroup := func() {
		groups = nil
		if !grouped {
			return
		}
		perm := rng.Perm(n)[:n/2]
		for len(perm) > 0 {
			k := min(1+rng.Intn(5), len(perm))
			groups = append(groups, perm[:k])
			perm = perm[k:]
		}
	}

	var seedBatch []stream.Update
	for i := 0; i < 2*n; i++ {
		seedBatch = insert(seedBatch)
	}
	apply(seedBatch)
	regroup()

	for step := 0; step <= steps; step++ {
		what := "seed"
		if step > 0 {
			switch op := rng.Intn(15); op {
			case 0:
				what = "empty batch"
				apply(nil)
			case 1:
				what = "batch of 1"
				apply(churn(1))
			case 2, 3:
				what = "batch of 8"
				apply(churn(8))
			case 4, 5:
				what = "batch of 4%"
				apply(churn(max(1, len(present)/25)))
			case 6:
				what = "batch cancelling to zero"
				var batch []stream.Update
				for i := 0; i < 5; i++ {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					batch = append(batch, stream.Update{U: u, V: v, Delta: 1, W: 1})
				}
				for i := len(batch) - 1; i >= 0; i-- {
					u := batch[i]
					u.Delta = -1
					batch = append(batch, u)
				}
				apply(batch)
			case 7:
				what = "merge"
				var batch []stream.Update
				for i := 0; i < 1+rng.Intn(6); i++ {
					batch = insert(batch)
				}
				for _, dst := range []*Sketch{live, twin} {
					other := New(sketchSeed, n, Config{})
					other.AddBatch(batch)
					if err := dst.Merge(other); err != nil {
						t.Fatal(err)
					}
				}
				ref.merged(batch)
				prefix = append(prefix, batch...)
			case 8:
				what = "release"
				live.EnableDecodeCache(false)
				live.EnableDecodeCache(caching)
				ref.reset()
			case 9:
				what = "cache off"
				if caching {
					live.EnableDecodeCache(false)
					ref.reset()
					apply(churn(3))
				} else {
					live.EnableDecodeCache(true)
					what = "cache on"
				}
				caching = !caching
			case 10:
				what = "marshal round trip"
				blob, err := live.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := live.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				ref.reset()
			case 11:
				what = "log overflow"
				var batch []stream.Update
				for len(batch) <= 4*n+1024 {
					batch = insert(batch)
					batch = remove(batch)
				}
				apply(batch)
			case 12:
				what = "mass delete"
				var batch []stream.Update
				for i := len(present) / 2; i > 0; i-- {
					batch = remove(batch)
				}
				apply(batch)
			case 13:
				what = "mass insert + regroup"
				var batch []stream.Update
				for i := 0; i < n; i++ {
					batch = insert(batch)
				}
				apply(batch)
				regroup()
			case 14:
				// Both endpoints of every update lie in the largest
				// connected component (of the contraction): its
				// membership is unchanged and its sum cancels every
				// update, so in the rounds where it is one component its
				// draw is kept, while the rounds before redraw the parts
				// an update crosses.
				what = "batch inside the largest component"
				uf := graph.NewUnionFind(n)
				for _, e := range present {
					uf.Union(e.u, e.v)
				}
				for _, g := range groups {
					for _, v := range g {
						uf.Union(g[0], v)
					}
				}
				size := make([]int, n)
				for v := range size {
					size[uf.Find(v)]++
				}
				big := slices.Index(size, slices.Max(size))
				var in []int
				for v := range size {
					if uf.Find(v) == big {
						in = append(in, v)
					}
				}
				var batch []stream.Update
				for len(batch) < 8 && len(in) > 1 {
					if u, v := in[rng.Intn(len(in))], in[rng.Intn(len(in))]; u != v {
						present = append(present, edge{u, v})
						batch = append(batch, stream.Update{U: u, V: v, Delta: 1, W: 1})
					}
				}
				apply(batch)
			}
		}
		ctx := fmt.Sprintf("step %d (%s)", step, what)

		h0, m0 := live.DecodeCacheStats()
		got, err := live.SpanningForestOpts(groups, p)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		h1, m1 := live.DecodeCacheStats()
		want, hits, misses, err := ref.forest(live, groups)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if !forestsEqual(got, want) {
			t.Fatalf("%s: cached forest diverged from the reference decode:\n got %v\nwant %v", ctx, got, want)
		}
		if !caching {
			ref.reset()
			hits, misses = 0, 0
		}
		if h1-h0 != hits || m1-m0 != misses {
			t.Fatalf("%s: cache pass classified %d hits / %d misses, the reference's rule gives %d / %d",
				ctx, h1-h0, m1-m0, hits, misses)
		}
		cold, err := twin.SpanningForestOpts(groups, p)
		if err != nil {
			t.Fatalf("%s: twin: %v", ctx, err)
		}
		if !forestsEqual(got, cold) {
			t.Fatalf("%s: cached forest diverged from the uncached twin:\n got %v\nwant %v", ctx, got, cold)
		}
		if step%6 == 0 || step == steps {
			fresh := New(sketchSeed, n, Config{})
			fresh.AddBatch(prefix)
			ff, err := fresh.SpanningForestOpts(groups, p)
			if err != nil {
				t.Fatalf("%s: fresh: %v", ctx, err)
			}
			if !forestsEqual(got, ff) {
				t.Fatalf("%s: cached forest diverged from a fresh sketch fed the prefix:\n got %v\nwant %v", ctx, got, ff)
			}
		}
	}
}

// TestRequeryAfterAbandonedExtraction cancels a cached extraction after
// its second round — entries of two rounds are already stamped for a
// fold window that then never opens — and checks the next extractions
// still equal the reference decode, including when a log overflow
// advances the window counter in between.
func TestRequeryAfterAbandonedExtraction(t *testing.T) {
	const n = 200
	for _, overflow := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		s := New(31, n, Config{})
		s.EnableDecodeCache(true)
		ref := &refDecoder{}
		churn := func(k int) {
			batch := make([]stream.Update, 0, 2*k)
			for i := 0; i < k; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				batch = append(batch, stream.Update{U: u, V: v, Delta: 1, W: 1})
				if overflow && i%2 == 1 {
					batch = append(batch, stream.Update{U: u, V: v, Delta: -1, W: 1})
				}
			}
			s.AddBatch(batch)
			ref.applied(batch)
		}
		check := func(ctx string) {
			t.Helper()
			got, err := s.SpanningForestOpts(nil, parallel.Default())
			if err != nil {
				t.Fatal(err)
			}
			want, _, _, err := ref.forest(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !forestsEqual(got, want) {
				t.Fatalf("overflow=%v, %s: forest diverged from the reference decode:\n got %v\nwant %v", overflow, ctx, got, want)
			}
		}
		churn(3 * n / 2)
		check("first query")
		churn(6)

		ctx, cancel := context.WithCancel(context.Background())
		tr := obs.New()
		tr.OnSpanEnd(func(e obs.Event) {
			if e.Phase == "agm/round01" {
				cancel()
			}
		})
		p := parallel.NewPolicy(ctx, 1, 0, nil).WithTracer(tr)
		if _, err := s.SpanningForestOpts(nil, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled extraction returned %v", err)
		}
		if overflow {
			churn(4*n + 1024)
		} else {
			churn(6)
		}
		check("after the abandoned extraction")
		churn(6)
		check("one query later")
	}
}
