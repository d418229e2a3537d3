package agm

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/parallel"
	"dynstream/internal/sketch"
	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// addPerUpdate is the ingest AddBatch replaced, kept as the reference
// the batch kernel is diffed against: one update at a time in stream
// order, routed through a hint per round and applied to both endpoint
// samplers before the next update is looked at.
func (s *Sketch) addPerUpdate(u stream.Update) {
	if u.U == u.V || u.Delta == 0 {
		return
	}
	a, b := u.U, u.V
	if a > b {
		a, b = b, a
	}
	key := stream.PairKey(a, b, s.n)
	if s.caching {
		s.logUpdate(a, b)
	}
	var h sketch.L0Hint
	for r, fam := range s.fam {
		fam.Hint(key, &h)
		s.at(r, a).AddHint(key, int64(u.Delta), &h)
		s.at(r, b).AddHint(key, -int64(u.Delta), &h)
	}
}

// nastyStream is a seeded update sequence built to break a batch
// kernel that is not a pure reordering of commuting additions: random
// inserts and deletes, self-loops and zero deltas (dropped), duplicate
// edges, an insert and its delete back to back (inside one batch at any
// batch size > 1), multiplicities above one, and a few hub vertices that
// collect a fifth of all incidences, so one vertex's strip takes
// hundreds of updates in a single sweep. The AGM layer accepts all of
// it; validation lives in the stream sources.
func nastyStream(n, count int, seed uint64) []stream.Update {
	rng := hashing.NewSplitMix64(seed)
	vertex := func() int {
		if rng.Intn(5) == 0 {
			return rng.Intn(4) // hubs
		}
		return rng.Intn(n)
	}
	ups := make([]stream.Update, 0, count)
	for len(ups) < count {
		u, v := vertex(), vertex()
		switch rng.Intn(16) {
		case 0:
			ups = append(ups, stream.Update{U: u, V: u, Delta: 1}) // self-loop
		case 1:
			ups = append(ups, stream.Update{U: u, V: v, Delta: 0})
		case 2: // duplicate edge, both orientations
			ups = append(ups, stream.Update{U: u, V: v, Delta: 1}, stream.Update{U: v, V: u, Delta: 1})
		case 3: // insert-then-delete
			ups = append(ups, stream.Update{U: u, V: v, Delta: 1}, stream.Update{U: u, V: v, Delta: -1})
		case 4:
			ups = append(ups, stream.Update{U: u, V: v, Delta: 3})
		case 5, 6, 7:
			ups = append(ups, stream.Update{U: u, V: v, Delta: -1})
		default:
			ups = append(ups, stream.Update{U: u, V: v, Delta: 1})
		}
	}
	return ups[:count]
}

// feed ingests ups in consecutive batches of the given size.
func feed(ups []stream.Update, size int, add func([]stream.Update)) {
	for lo := 0; lo < len(ups); lo += size {
		add(ups[lo:min(lo+size, len(ups))])
	}
}

func marshalOf(t *testing.T, s *Sketch) []byte {
	t.Helper()
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestAGMSortedBatchMatchesPerUpdate: the vertex-sorted batch kernel
// leaves exactly the state the per-update fold does — wire bytes, and
// with the decode cache on the forests of a
// query between two ingest halves and a re-query after — at batch sizes
// on both sides of every boundary the kernel has: one update, a pair, a
// short batch, exactly one chunk, one chunk plus one, several chunks.
// The small sketch sweeps every 4n updates; the large one (4n >
// ingestChunk) runs full-size chunks.
func TestAGMSortedBatchMatchesPerUpdate(t *testing.T) {
	t.Run("n=300", func(t *testing.T) {
		checkSortedBatch(t, 300, mixedStream(t, 300, 6000), []int{1, 2, 255, 4 * 300, 4*300 + 1, 5000})
	})
	t.Run("deep", func(t *testing.T) {
		checkSortedBatch(t, 300, deepStream(t, 300, 6000), []int{255, 4 * 300, 5000})
	})
	if !testing.Short() {
		t.Run("n=4200", func(t *testing.T) {
			checkSortedBatch(t, 4200, mixedStream(t, 4200, 45000), []int{ingestChunk, ingestChunk + 1, 40000})
		})
	}
}

// sortedBatchCfg is the geometry the equivalence runs use: the kernel
// is per round, so four rounds keep them quick.
var sortedBatchCfg = Config{Rounds: 4}

// mixedStream is a churned random graph's stream followed by a
// nastyStream, count updates in all.
func mixedStream(t *testing.T, n, count int) []stream.Update {
	g := graph.ConnectedGNP(n, 3/float64(n), 21)
	var ups []stream.Update
	if err := stream.WithChurn(g, count/8, 22).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return append(ups, nastyStream(n, count-len(ups), 23)...)
}

// deepStream draws only edges whose keys reach three levels per round
// on average, against the two the routing buffer provisions for: a
// chunk of them fills its level slots before its update count, which
// takes AddBatch through its sweep-early-and-continue path. The check
// that it does is made on the routing buffer directly.
func deepStream(t *testing.T, n, count int) []stream.Update {
	s := New(0x5b, n, sortedBatchCfg)
	rng := hashing.NewSplitMix64(24)
	var h sketch.L0Hint
	var ups []stream.Update
	for len(ups) < count {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		lv := 0
		for _, fam := range s.fam {
			fam.Hint(stream.PairKey(a, b, n), &h)
			lv += h.Level()
		}
		if lv >= 2*s.rounds {
			ups = append(ups, stream.Update{U: a, V: b, Delta: 1 - 2*(len(ups)%2)})
		}
	}
	var routes sketch.L0Routes
	routes.Reset(s.fam, 4*n)
	for _, u := range ups[:4*n] {
		if !routes.Route(stream.PairKey(u.U, u.V, n), 1) {
			return ups
		}
	}
	t.Fatal("a chunk of deep edges fit the routing buffer: the early sweep is not exercised")
	return nil
}

func checkSortedBatch(t *testing.T, n int, ups []stream.Update, sizes []int) {
	for _, caching := range []bool{false, true} {
		// run ingests the first half, queries (cache on), ingests the
		// rest and queries again; it returns what must match.
		run := func(add func(*Sketch, []stream.Update)) (enc []byte, forests string) {
			s := New(0x5b, n, sortedBatchCfg)
			s.EnableDecodeCache(caching)
			half := len(ups) / 2
			add(s, ups[:half])
			if caching {
				f, err := s.SpanningForest(nil)
				if err != nil {
					t.Fatal(err)
				}
				forests = fmt.Sprint(f)
			}
			add(s, ups[half:])
			f, err := s.SpanningForest(nil)
			if err != nil {
				t.Fatal(err)
			}
			return marshalOf(t, s), forests + fmt.Sprint(f)
		}
		wantEnc, wantForests := run(func(s *Sketch, part []stream.Update) {
			for _, u := range part {
				s.addPerUpdate(u)
			}
		})
		for _, size := range sizes {
			enc, forests := run(func(s *Sketch, part []stream.Update) { feed(part, size, s.AddBatch) })
			label := fmt.Sprintf("cache=%v batch=%d", caching, size)
			if !bytes.Equal(enc, wantEnc) {
				t.Errorf("%s: marshal bytes differ from the per-update fold", label)
			}
			if forests != wantForests {
				t.Errorf("%s: forests differ from the per-update fold", label)
			}
		}
	}
}

// TestAGMVertexRangeIngest: a chunk routed in w parts and swept in w
// vertex ranges leaves the state the one-part kernel does — wire bytes
// and, with the decode cache on, the update log and its window number — at w = 2, 3 and 8: with w above n (empty ranges), on
// deep keys that fill a part's routing buffer mid-chunk, with hubs
// owning a fifth of the incidences, and in batches that span several
// chunks. Through AddBatchOpts a policy asking for more workers than
// GOMAXPROCS gets GOMAXPROCS of them.
func TestAGMVertexRangeIngest(t *testing.T) {
	check := func(t *testing.T, n int, ups []stream.Update, add func(s *Sketch, b []stream.Update)) {
		t.Helper()
		for _, caching := range []bool{false, true} {
			build := func(add func(*Sketch, []stream.Update)) *Sketch {
				s := New(0x5b, n, sortedBatchCfg)
				s.EnableDecodeCache(caching)
				feed(ups, 2500, func(b []stream.Update) { add(s, b) })
				return s
			}
			want, got := build((*Sketch).AddBatch), build(add)
			label := fmt.Sprintf("cache=%v", caching)
			if !bytes.Equal(marshalOf(t, got), marshalOf(t, want)) {
				t.Errorf("%s: marshal bytes differ from the one-part kernel", label)
			}
			if !slices.Equal(got.log, want.log) || got.logGen != want.logGen {
				t.Errorf("%s: update log (%d entries, window %d) differs from the one-part kernel's (%d, %d)",
					label, len(got.log), got.logGen, len(want.log), want.logGen)
			}
		}
	}
	streams := []struct {
		name string
		n    int
		ups  []stream.Update
	}{
		{"mixed", 300, mixedStream(t, 300, 6000)},
		{"deep", 300, deepStream(t, 300, 6000)},
		{"n=3", 3, nastyStream(3, 200, 7)},
	}
	for _, st := range streams {
		for _, w := range []int{2, 3, 8} {
			w := w
			t.Run(fmt.Sprintf("%s/w=%d", st.name, w), func(t *testing.T) {
				check(t, st.n, st.ups, func(s *Sketch, b []stream.Update) { s.addBatch(b, w) })
			})
		}
	}
	t.Run("gomaxprocs<workers", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		const n = 2000
		if w := parallel.BatchWorkers(8, 2500); w != 2 {
			t.Fatalf("BatchWorkers(8, 2500) = %d at GOMAXPROCS 2, want 2", w)
		}
		p := parallel.Default().WithWorkers(8)
		check(t, n, nastyStream(n, 12000, 8), func(s *Sketch, b []stream.Update) { s.AddBatchOpts(b, p) })
	})
}

// TestParkedScratchReleasesSketch: a scratch back on the free list
// keeps no reference to the sketch it last served, so a dropped
// sketch's round families — hash banks and power tables, about 1 MB at
// n = 10 000 — are collected.
func TestParkedScratchReleasesSketch(t *testing.T) {
	s := New(11, 200, Config{})
	s.AddBatch(nastyStream(200, 2000, 12))
	collected := make(chan struct{})
	runtime.SetFinalizer(s.fam[0], func(*sketch.L0Family) { close(collected) })
	s = nil
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped sketch's family is still reachable after its ingest")
}

// TestApplicationsBatchMatchPerUpdate: Bipartiteness, MSF and
// KConnectivity hand their sketches whole batches (a double-cover
// batch, class-partitioned prefixes, k copies); each must leave every
// constituent sketch exactly as folding the stream one update at a time
// through the reference does. n is small, so 4n-update chunks put
// several chunk boundaries inside each batch.
func TestApplicationsBatchMatchPerUpdate(t *testing.T) {
	const n = 40
	ups := nastyStream(n, 3000, 31)
	rng := hashing.NewSplitMix64(32)
	for i := range ups {
		ups[i].W = 1 + 30*rng.Float64() // spread over the MSF's classes
	}
	same := func(label string, got, want *Sketch) {
		t.Helper()
		if !bytes.Equal(marshalOf(t, got), marshalOf(t, want)) {
			t.Errorf("%s: marshal bytes differ from the per-update fold", label)
		}
	}
	for _, size := range []int{1, 7, 4*n + 1, len(ups)} {
		kc, kcRef := NewKConnectivity(41, n, 3), NewKConnectivity(41, n, 3)
		bip, bipRef := NewBipartiteness(42, n), NewBipartiteness(42, n)
		msf, msfRef := NewMSF(43, n, 32, 0.5), NewMSF(43, n, 32, 0.5)
		feed(ups, size, kc.AddBatch)
		feed(ups, size, bip.AddBatch)
		feed(ups, size, msf.AddBatch)
		for _, u := range ups {
			for _, s := range kcRef.stack {
				s.addPerUpdate(u)
			}
			bipRef.stack[0].addPerUpdate(u)
			bipRef.stack[1].addPerUpdate(stream.Update{U: u.U, V: u.V + n, Delta: u.Delta})
			bipRef.stack[1].addPerUpdate(stream.Update{U: u.U + n, V: u.V, Delta: u.Delta})
			c := min(stream.WeightClassOf(u.W, 1.5), msfRef.maxClass)
			for _, s := range msfRef.stack[c:] {
				s.addPerUpdate(u)
			}
		}
		for i := range kc.stack {
			same(fmt.Sprintf("batch=%d kconn sketch %d", size, i), kc.stack[i], kcRef.stack[i])
		}
		same(fmt.Sprintf("batch=%d bipartite base", size), bip.stack[0], bipRef.stack[0])
		same(fmt.Sprintf("batch=%d bipartite cover", size), bip.stack[1], bipRef.stack[1])
		for c := range msf.stack {
			same(fmt.Sprintf("batch=%d msf prefix %d", size, c), msf.stack[c], msfRef.stack[c])
		}
	}
}

// TestReconcileIsOneExactBatch: the certificate's forest subtraction
// and SubtractTo issue one batch each; after a certificate, folding the
// subtracted forests back must return every sketch to the pure stream
// state, and a subtraction must leave the grid exactly as subtracting
// update by update does.
func TestReconcileIsOneExactBatch(t *testing.T) {
	const n = 60
	g := graph.ConnectedGNP(n, 0.2, 51)
	var ups []stream.Update
	_ = stream.FromGraph(g, 52).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	})
	kc, ref := NewKConnectivity(53, n, 3), NewKConnectivity(53, n, 3)
	kc.AddBatch(ups)
	ref.AddBatch(ups)
	if _, err := kc.Certificate(); err != nil {
		t.Fatal(err)
	}
	for i, s := range kc.stack {
		s.SubtractTo(nil)
		if !bytes.Equal(gridOf(t, s), gridOf(t, ref.stack[i])) {
			t.Errorf("sketch %d: state after subtract + restore differs from the stream state", i)
		}
	}

	sub, want := New(54, n, Config{}), New(54, n, Config{})
	sub.AddBatch(ups)
	edges := g.Edges()[:g.M()/2]
	sub.SubtractTo(edgeCounts(edges))
	for _, u := range ups {
		want.addPerUpdate(u)
	}
	for _, e := range edges {
		want.addPerUpdate(stream.Update{U: e.U, V: e.V, Delta: -1})
	}
	if !bytes.Equal(gridOf(t, sub), gridOf(t, want)) {
		t.Error("SubtractTo differs from per-update subtraction")
	}
}

// TestSubtractToStreamState: SubtractTo applies only the difference
// from what is folded out now, and the wire format and Merge see the
// stream state. A repeated want touches no sampler; SubtractTo(nil)
// restores the grid; MarshalBinary of a subtracted sketch equals the
// pure sketch's; and merging two subtracted sketches equals merging
// their pure twins.
func TestSubtractToStreamState(t *testing.T) {
	const n = 50
	ups := nastyStream(n, 800, 61)
	g := graph.ConnectedGNP(n, 0.2, 62)
	pure, sub := New(63, n, Config{}), New(63, n, Config{})
	pure.AddBatch(ups)
	sub.AddBatch(ups)
	want := edgeCounts(g.Edges()[:g.M()/2])
	want[[2]int{0, 1}] += 2 // a multiplicity above one

	sub.SubtractTo(want)
	if bytes.Equal(gridOf(t, sub), gridOf(t, pure)) {
		t.Fatal("SubtractTo left the grid unchanged")
	}
	sub.EnableDecodeCache(true)
	sub.SubtractTo(maps.Clone(want))
	if len(sub.log) != 0 {
		t.Errorf("an unchanged want logged %d updates", len(sub.log))
	}
	sub.SubtractTo(nil)
	if !bytes.Equal(gridOf(t, sub), gridOf(t, pure)) {
		t.Error("SubtractTo(nil) did not return the stream state")
	}

	sub.SubtractTo(want)
	if !bytes.Equal(marshalOf(t, sub), marshalOf(t, pure)) {
		t.Error("MarshalBinary of a subtracted sketch differs from the pure sketch's")
	}
	if !bytes.Equal(gridOf(t, sub), gridOf(t, pure)) {
		t.Error("MarshalBinary did not leave the stream state behind")
	}

	more := nastyStream(n, 300, 64)
	a, b := New(63, n, Config{}), New(63, n, Config{})
	a.AddBatch(more)
	b.AddBatch(more)
	sub.SubtractTo(want)
	b.SubtractTo(want)
	pureCopy := New(63, n, Config{})
	pureCopy.AddBatch(ups)
	if err := sub.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := pureCopy.Merge(a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gridOf(t, sub), gridOf(t, pureCopy)) {
		t.Error("merging subtracted sketches differs from merging their pure twins")
	}
	if !bytes.Equal(gridOf(t, b), gridOf(t, a)) {
		t.Error("Merge left its argument subtracted")
	}
}

// edgeCounts is SubtractTo's multiset of an edge list.
func edgeCounts(edges []graph.Edge) map[[2]int]int64 {
	m := map[[2]int]int64{}
	for _, e := range edges {
		e = e.Canon()
		m[[2]int{e.U, e.V}]++
	}
	return m
}

// gridOf encodes every sampler of the grid as it stands, without
// MarshalBinary's fold-back of a subtraction.
func gridOf(t *testing.T, s *Sketch) []byte {
	t.Helper()
	w := &wire.Writer{}
	for i := range s.samp {
		if err := w.SketchBlock(&s.samp[i]); err != nil {
			t.Fatal(err)
		}
	}
	return w.Bytes()
}

// TestScratchSharedByConcurrentSketches: more sketches than processors
// ingest at once, each call borrowing a scratch from the shared free
// list; every sketch ends bit-identical to a serial build (the list's
// bound is parallel's TestFreeList). Meaningful under -race.
func TestScratchSharedByConcurrentSketches(t *testing.T) {
	const n = 120
	ups := nastyStream(n, 3000, 5)
	serial := New(9, n, Config{})
	serial.AddBatch(ups)
	want := marshalOf(t, serial)

	sketches := make([]*Sketch, 2*ingestParts.Cap()+1)
	var wg sync.WaitGroup
	for i := range sketches {
		sketches[i] = New(9, n, Config{})
		wg.Add(1)
		go func(s *Sketch) {
			defer wg.Done()
			feed(ups, 97, s.AddBatch)
		}(sketches[i])
	}
	wg.Wait()
	for i, s := range sketches {
		if !bytes.Equal(marshalOf(t, s), want) {
			t.Errorf("sketch %d differs from the serial build", i)
		}
	}
}
