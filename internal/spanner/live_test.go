package spanner

import (
	"math/rand"
	"slices"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
)

func memStream(t *testing.T, n int, ups []stream.Update) *stream.MemoryStream {
	t.Helper()
	ms := stream.NewMemoryStream(n)
	for _, u := range ups {
		if err := ms.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	return ms
}

func graphsEqual(a, b *graph.Graph) bool {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// TestTwoPassLiveBitIdentical interleaves churn with live queries and
// checks every query against a cold from-scratch two-pass build over
// the same total stream, at several worker counts.
func TestTwoPassLiveBitIdentical(t *testing.T) {
	const n = 120
	cfg := Config{K: 2, Seed: 99, CollectAugmented: true}
	rng := rand.New(rand.NewSource(3))

	var base []stream.Update
	for i := 0; i < 400; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		base = append(base, stream.Update{U: u, V: v, Delta: 1})
	}
	live := NewTwoPass(n, cfg)
	if err := live.StartLive(memStream(t, n, base)); err != nil {
		t.Fatal(err)
	}

	total := append([]stream.Update(nil), base...)
	for round := 0; round < 5; round++ {
		for _, workers := range []int{1, 2, 4} {
			p := parallel.Default().WithWorkers(workers)
			got, err := live.QueryLive(p)
			if err != nil {
				t.Fatalf("round %d workers %d: live: %v", round, workers, err)
			}
			want, err := BuildTwoPassOpts(memStream(t, n, total), cfg, p)
			if err != nil {
				t.Fatalf("round %d workers %d: cold: %v", round, workers, err)
			}
			if !graphsEqual(got.Spanner, want.Spanner) {
				t.Fatalf("round %d workers %d: live spanner diverged from cold build", round, workers)
			}
			if !graphsEqual(got.Augmented, want.Augmented) {
				t.Fatalf("round %d workers %d: live augmented set diverged", round, workers)
			}
			if got.Terminals != want.Terminals || got.Stats.RecoveredEdges != want.Stats.RecoveredEdges {
				t.Fatalf("round %d workers %d: live stats diverged: %+v vs %+v",
					round, workers, got.Stats, want.Stats)
			}
		}
		// Churn: delete a few inserted edges, insert a few new ones.
		var batch []stream.Update
		for j := 0; j < 4 && len(total) > 0; j++ {
			e := total[rng.Intn(len(base))]
			batch = append(batch, stream.Update{U: e.U, V: e.V, Delta: -e.Delta})
		}
		for j := 0; j < 4; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			batch = append(batch, stream.Update{U: u, V: v, Delta: 1})
		}
		if err := live.ApplyLive(batch); err != nil {
			t.Fatal(err)
		}
		total = append(total, batch...)
	}
}

// TestTwoPassLiveCacheReuse checks both QueryLive table paths against a
// cold build. A re-query of an unchanged state, and one after a batch
// that inserts and deletes the same edge (generations move, the cluster
// forest cannot), keep the pass-2 tables and fold only the log suffix.
// Deleting a non-terminal copy's witness edge changes the forest, so the
// tables are reallocated and src plus the log replayed.
func TestTwoPassLiveCacheReuse(t *testing.T) {
	const n = 80
	cfg := Config{K: 2, Seed: 5}
	var ups []stream.Update
	for v := 1; v < n; v++ {
		ups = append(ups, stream.Update{U: v - 1, V: v, Delta: 1})
		ups = append(ups, stream.Update{U: (v * 13) % n, V: v, Delta: 1})
	}
	ups = filterSelfLoops(ups)
	for i := range ups {
		ups[i] = ups[i].Canon()
	}
	tp := NewTwoPass(n, cfg)
	if err := tp.StartLive(memStream(t, n, ups)); err != nil {
		t.Fatal(err)
	}
	total := append([]stream.Update(nil), ups...)
	apply := func(batch ...stream.Update) {
		t.Helper()
		if err := tp.ApplyLive(batch); err != nil {
			t.Fatal(err)
		}
		total = append(total, batch...)
	}
	// query re-queries the live state, checks it against a cold build and
	// reports whether the pass-2 tables survived (by the identity of the
	// first row's first slot).
	query := func(what string) (kept bool) {
		t.Helper()
		var before **sketch.KeyedEdgeSketch
		if tp.tables != nil {
			before = &tp.tables[slices.IndexFunc(tp.tables, func(r []*sketch.KeyedEdgeSketch) bool { return r != nil })][0]
		}
		got, err := tp.QueryLive(parallel.Default())
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildTwoPass(memStream(t, n, total), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(got.Spanner, want.Spanner) || got.Terminals != want.Terminals {
			t.Fatalf("%s: live spanner diverged from cold build", what)
		}
		if tp.liveSynced != len(tp.liveLog) {
			t.Fatalf("%s: %d of %d logged updates folded", what, tp.liveSynced, len(tp.liveLog))
		}
		return slices.ContainsFunc(tp.tables, func(r []*sketch.KeyedEdgeSketch) bool { return r != nil && &r[0] == before })
	}

	query("first")
	attached := 0
	for _, e := range tp.attach {
		if e.members != nil {
			attached++
		}
	}
	if attached == 0 || len(tp.recCache) == 0 {
		t.Fatalf("caches empty after first query: attach=%d rec=%d", attached, len(tp.recCache))
	}
	hits, misses := tp.DecodeCacheStats()
	if !query("unchanged re-query") {
		t.Fatal("unchanged re-query reallocated the pass-2 tables")
	}
	if h, m := tp.DecodeCacheStats(); m != misses || h <= hits {
		t.Fatalf("unchanged re-query re-decoded: hits %d->%d misses %d->%d", hits, h, misses, m)
	}

	// (a) One edge inserted and deleted in a single batch, at a center so
	// that pass-1 generations move.
	center := slices.Index(tp.inC[1], true)
	if center < 0 {
		t.Fatal("no level-1 center")
	}
	e := stream.Update{U: (center + 1) % n, V: center, Delta: 1}.Canon()
	_, misses = tp.DecodeCacheStats()
	apply(e, stream.Update{U: e.U, V: e.V, Delta: -1})
	if !query("insert+delete") {
		t.Fatal("a batch that cannot move the forest reallocated the pass-2 tables")
	}
	if _, m := tp.DecodeCacheStats(); m == misses {
		t.Fatal("insert+delete moved no generation: the batch tests nothing")
	}

	// (b) Every copy of a non-terminal copy's witness edge deleted.
	ci := slices.IndexFunc(tp.copies, func(c copyNode) bool { return !c.terminal })
	if ci < 0 {
		t.Fatal("no non-terminal copy")
	}
	w := tp.copies[ci].witness
	pair := stream.Update{U: w[0], V: w[1]}.Canon()
	mult := 0
	for _, u := range total {
		if u.U == pair.U && u.V == pair.V {
			mult += u.Delta
		}
	}
	for ; mult > 0; mult-- {
		apply(stream.Update{U: pair.U, V: pair.V, Delta: -1})
	}
	if query("witness deleted") {
		t.Fatal("a changed cluster forest kept the old pass-2 tables")
	}
	if c := tp.copies[ci]; !c.terminal && c.witness == w {
		t.Fatal("deleting the witness edge left the forest unchanged: the step tests nothing")
	}
	if tp.Phase() != 0 {
		t.Fatalf("live state left phase 0: %d", tp.Phase())
	}
}

func filterSelfLoops(ups []stream.Update) []stream.Update {
	out := ups[:0]
	for _, u := range ups {
		if u.U != u.V {
			out = append(out, u)
		}
	}
	return out
}

// TestAdditiveLiveBitIdentical interleaves updates with repeatable
// extractions and checks each against a cold single-pass build over
// the same total stream.
func TestAdditiveLiveBitIdentical(t *testing.T) {
	const n = 100
	cfg := AdditiveConfig{D: 3, Seed: 17}
	rng := rand.New(rand.NewSource(11))

	live := NewAdditive(n, cfg)
	live.EnableDecodeCache(true)
	var total []stream.Update
	add := func(count int) {
		var batch []stream.Update
		for j := 0; j < count; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			batch = append(batch, stream.Update{U: u, V: v, Delta: 1})
		}
		if err := live.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		total = append(total, batch...)
	}
	add(300)
	for round := 0; round < 5; round++ {
		for _, workers := range []int{1, 2, 4} {
			p := parallel.Default().WithWorkers(workers)
			got, err := live.ExtractOpts(p)
			if err != nil {
				t.Fatalf("round %d workers %d: live: %v", round, workers, err)
			}
			cold := NewAdditive(n, cfg)
			if err := cold.AddBatch(total); err != nil {
				t.Fatal(err)
			}
			want, err := cold.ExtractOpts(p)
			if err != nil {
				t.Fatalf("round %d workers %d: cold: %v", round, workers, err)
			}
			if !graphsEqual(got.Spanner, want.Spanner) {
				t.Fatalf("round %d workers %d: live additive spanner diverged", round, workers)
			}
			if got.LowDegree != want.LowDegree || got.Centers != want.Centers {
				t.Fatalf("round %d workers %d: diagnostics diverged: %d/%d vs %d/%d",
					round, workers, got.LowDegree, got.Centers, want.LowDegree, want.Centers)
			}
		}
		// Churn: a few deletions of present edges plus fresh inserts.
		var batch []stream.Update
		for j := 0; j < 3; j++ {
			e := total[rng.Intn(len(total))]
			if e.Delta > 0 {
				batch = append(batch, stream.Update{U: e.U, V: e.V, Delta: -1})
				total = append(total, stream.Update{U: e.U, V: e.V, Delta: -1})
			}
		}
		if err := live.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		add(3)
	}
}

// TestAdditiveMarshalRestoresElow pins the purity of the wire format:
// a state that has been queried (and so carries E_low subtractions)
// marshals to the same bytes as a never-queried twin.
func TestAdditiveMarshalRestoresElow(t *testing.T) {
	const n = 60
	cfg := AdditiveConfig{D: 2, Seed: 23}
	rng := rand.New(rand.NewSource(29))
	a := NewAdditive(n, cfg)
	b := NewAdditive(n, cfg)
	for i := 0; i < 150; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		up := stream.Update{U: u, V: v, Delta: 1}
		if err := a.Update(up); err != nil {
			t.Fatal(err)
		}
		if err := b.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ExtractOpts(parallel.Default()); err != nil {
		t.Fatal(err)
	}
	encA, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	encB, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(encA) != string(encB) {
		t.Fatal("queried state marshals differently from pure twin")
	}
}

// TestAdditiveZeroSum: after an extraction that collapses cluster
// groups, the forest sketch — E_low subtracted — still sums to the zero
// sampler in every round, the precondition of the forest decode's
// largest-component identity; so does it after churn moves E_low.
func TestAdditiveZeroSum(t *testing.T) {
	const n = 90
	rng := rand.New(rand.NewSource(43))
	a := NewAdditive(n, AdditiveConfig{D: 3, Seed: 41})
	var edges []stream.Update
	add := func(u, v int) {
		up := stream.Update{U: u, V: v, Delta: 1}
		edges = append(edges, up)
		if err := a.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	for hub := 0; hub < 6; hub++ { // high-degree vertices: centers and their followers
		for i := 0; i < 20; i++ {
			if v := 6 + rng.Intn(n-6); v != hub {
				add(hub, v)
			}
		}
	}
	for i := 0; i < 40; i++ { // sparse edges among the rest: E_low
		u, v := 40+rng.Intn(n-40), 40+rng.Intn(n-40)
		if u != v {
			add(u, v)
		}
	}
	for step := 0; step < 2; step++ {
		res, err := a.ExtractOpts(parallel.Default())
		if err != nil {
			t.Fatal(err)
		}
		if res.Centers == 0 || res.LowDegree == 0 {
			t.Fatalf("step %d: %d centers, %d low-degree vertices: no groups or no E_low to test", step, res.Centers, res.LowDegree)
		}
		if !a.forest.ZeroSum() {
			t.Errorf("step %d: the forest sketch with E_low subtracted does not sum to zero", step)
		}
		for _, up := range edges[len(edges)-10:] { // delete some of E_low
			up.Delta = -1
			if err := a.Update(up); err != nil {
				t.Fatal(err)
			}
		}
		edges = edges[:len(edges)-10]
	}
}
