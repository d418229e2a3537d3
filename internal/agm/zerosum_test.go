package agm

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/obs"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// roundSpans records the attributes of every agm/roundNN span the
// extractions under its policy end, in order.
type roundSpans struct {
	mu     sync.Mutex
	rounds []map[string]int64
}

func (rs *roundSpans) policy(p *parallel.Policy) *parallel.Policy {
	tr := obs.New()
	tr.OnSpanEnd(func(e obs.Event) {
		if !strings.HasPrefix(e.Phase, "agm/round") {
			return
		}
		attrs := map[string]int64{}
		for _, a := range e.Attrs {
			attrs[a.Key] = a.Val
		}
		rs.mu.Lock()
		rs.rounds = append(rs.rounds, attrs)
		rs.mu.Unlock()
	})
	return p.WithTracer(tr)
}

// check fails the test for a recorded round whose folds do not match
// its dirty components: none without one, and at least one member
// level block read per dirty component.
func (rs *roundSpans) check(t *testing.T, ctx string) {
	t.Helper()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, r := range rs.rounds {
		if folds, dirty := r["folds"], r["dirty"]; folds < dirty || (dirty == 0) != (folds == 0) {
			t.Fatalf("%s: a round with %d dirty components reports %d folds", ctx, dirty, folds)
		}
	}
}

// churnUpdates is a random insert/delete stream on n vertices: every
// deletion removes an edge still present.
func churnUpdates(n, count int, seed int64) []stream.Update {
	rng := rand.New(rand.NewSource(seed))
	var present [][2]int
	var ups []stream.Update
	for len(ups) < count {
		if len(present) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(present))
			e := present[k]
			present[k] = present[len(present)-1]
			present = present[:len(present)-1]
			ups = append(ups, stream.Update{U: e[0], V: e[1], Delta: -1, W: 1})
			continue
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		present = append(present, [2]int{u, v})
		ups = append(ups, stream.Update{U: u, V: v, Delta: 1, W: 1 + float64(rng.Intn(40))})
	}
	return ups
}

// TestZeroSumInvariant: Σ_v samp[v][r] is the zero sampler for every
// round r of every state built from updates — the property
// UnmarshalBinary checks of a restored state. A churn stream ingested at one and
// three workers, a shard merge, a marshal round trip, the k-connectivity
// sketches with their forests subtracted, the bipartiteness double
// cover and every MSF class prefix.
func TestZeroSumInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	const n = 300
	ups := churnUpdates(n, 6000, 5)
	check := func(what string, s *Sketch) {
		t.Helper()
		if !s.ZeroSum() {
			t.Errorf("%s: the samplers of some round do not sum to zero", what)
		}
	}

	for _, workers := range []int{1, 3} {
		s := New(11, n, Config{})
		s.AddBatchOpts(ups, parallel.Default().WithWorkers(workers))
		check(fmt.Sprintf("churn at %d workers", workers), s)
	}

	a, b := New(11, n, Config{}), New(11, n, Config{})
	a.AddBatch(ups[:len(ups)/3])
	b.AddBatch(ups[len(ups)/3:])
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	check("shard merge", a)

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(11, n, Config{})
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	check("marshal round trip", restored)

	kc := NewKConnectivity(13, n, 3)
	kc.AddBatch(ups)
	cert, err := kc.CertificateOpts(parallel.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(cert[0]) == 0 || len(kc.stack[2].subtracted) == 0 {
		t.Fatalf("the certificate subtracted nothing: first forest %d edges", len(cert[0]))
	}
	for i, s := range kc.stack {
		check(fmt.Sprintf("k-connectivity sketch %d, forests subtracted", i), s)
	}

	bip := NewBipartiteness(17, n)
	bip.AddBatch(ups)
	if _, err := bip.IsBipartite(); err != nil {
		t.Fatal(err)
	}
	check("bipartiteness base", bip.stack[0])
	check("bipartiteness double cover", bip.stack[1])

	msf := NewMSF(19, n, 40, 0.5)
	msf.AddBatch(ups)
	if _, err := msf.Forest(); err != nil {
		t.Fatal(err)
	}
	for c, s := range msf.stack {
		check(fmt.Sprintf("MSF prefix %d", c), s)
	}
}

// TestDominantComponentDecodes: the cold decodes of a graph whose
// largest component dominates each round — one with and one without
// groups; the decode reads no worker count — equal the map-based
// reference decode, and so does a one-update step after a warm query,
// whose update dirties the largest component of some round.
// TestRequeryModelEquivalence's n=400 rows run the cached decodes of
// such graphs.
func TestDominantComponentDecodes(t *testing.T) {
	const n = 1000
	preload, churn := serveShape(n, 2*n, 2*n, 64, 3)
	for _, grouped := range []bool{false, true} {
		var groups [][]int
		if grouped {
			for v := 0; v+3 < n; v += 7 {
				groups = append(groups, []int{v, v + 1, v + 3})
			}
		}
		name := fmt.Sprintf("cold/groups=%v", grouped)
		s := New(23, n, Config{})
		s.AddBatch(preload)
		rs := &roundSpans{}
		got, err := s.SpanningForestOpts(groups, rs.policy(parallel.Default()))
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := (&refDecoder{}).forest(s, groups)
		if err != nil {
			t.Fatal(err)
		}
		if !forestsEqual(got, want) {
			t.Fatalf("%s: forest diverged from the reference decode:\n got %v\nwant %v", name, got, want)
		}
		rs.check(t, name)
	}

	// One update after a warm query: the components holding its
	// endpoints are dirty in every round.
	s := New(29, n, Config{})
	s.EnableDecodeCache(true)
	s.AddBatch(preload)
	s.AddBatch(churn)
	p := parallel.Default()
	if _, err := s.SpanningForestOpts(nil, p); err != nil {
		t.Fatal(err)
	}
	up := stream.Update{U: 17, V: 640, Delta: 1, W: 1}
	s.AddBatch([]stream.Update{up})
	rs := &roundSpans{}
	got, err := s.SpanningForestOpts(nil, rs.policy(p))
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := (&refDecoder{}).forest(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsEqual(got, want) {
		t.Fatalf("one-update step: forest diverged from the reference decode:\n got %v\nwant %v", got, want)
	}
	rs.check(t, "one-update step")
	// Replay the forest round by round (each round's unions are its
	// "merges") to find which rounds' largest component holds an
	// endpoint of the update.
	uf := graph.NewUnionFind(n)
	dirtyL := 0
	for r, attrs := range rs.rounds {
		size := map[int]int{}
		for v := 0; v < n; v++ {
			size[uf.Find(v)]++
		}
		largest, count := 0, 0
		for _, c := range size {
			if c > largest {
				largest, count = c, 1
			} else if c == largest {
				count++
			}
		}
		if count == 1 && (size[uf.Find(up.U)] == largest || size[uf.Find(up.V)] == largest) {
			dirtyL++
		}
		if attrs["largest"] != int64(largest) {
			t.Fatalf("round %d: span says largest %d, the replay %d", r, attrs["largest"], largest)
		}
		for _, e := range got[:attrs["merges"]] {
			uf.Union(e.U, e.V)
		}
		got = got[attrs["merges"]:]
	}
	if dirtyL == 0 {
		t.Error("the update's endpoints were in no round's largest component: the step tests nothing")
	}
}

// TestNonZeroSumRefused: a state holding one endpoint of one update in
// every round — its samplers do not sum to zero, which no stream
// produces — encodes, and the AGM decoder and every application decoder
// built on it refuse the encoding with errCorrupt, while the honest
// encoding of the same state decodes.
func TestNonZeroSumRefused(t *testing.T) {
	const n = 12
	ups := churnUpdates(n, 40, 9)
	type state interface {
		AddBatch([]stream.Update)
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	}
	for _, c := range []struct {
		name  string
		build func() (state, *Sketch) // the state and the sketch to forge
	}{
		{"AGM", func() (state, *Sketch) { s := New(3, n, Config{}); return s, s }},
		{"KConnectivity", func() (state, *Sketch) { kc := NewKConnectivity(6, n, 2); return kc, kc.stack[1] }},
		{"Bipartiteness", func() (state, *Sketch) { b := NewBipartiteness(7, n); return b, b.stack[1] }},
		{"MSF", func() (state, *Sketch) { m := NewMSF(8, n, 4, 1); return m, m.stack[len(m.stack)-1] }},
	} {
		st, sk := c.build()
		st.AddBatch(ups)
		good, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < sk.rounds; r++ {
			sk.at(r, 0).Add(stream.PairKey(0, 1, sk.n), 1)
		}
		bad, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.UnmarshalBinary(bad); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: one-endpoint update decoded: %v, want errCorrupt", c.name, err)
		}
		if err := st.UnmarshalBinary(good); err != nil {
			t.Errorf("%s: honest encoding refused: %v", c.name, err)
		}
	}
}

// TestForestSpanRounds checks the agm/forest span's round report: a path
// sketched with too few rounds for Borůvka to join it runs every round,
// the last one still merging, and reports them exhausted; a star joins
// in its first round, and a random connected graph well inside its
// default budget. Cached and uncached decodes report the same.
func TestForestSpanRounds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		rounds    int
		used      int64 // 0: any count below the budget
		exhausted int64
	}{
		{"path, 4 rounds", graph.Path(512), 4, 4, 1},
		{"star, default rounds", graph.Star(512), 0, 1, 0},
		{"gnp, default rounds", graph.ConnectedGNP(512, 0.02, 3), 0, 0, 0},
	} {
		for _, caching := range []bool{false, true} {
			s := New(9, tc.g.N(), Config{Rounds: tc.rounds})
			s.EnableDecodeCache(caching)
			var batch []stream.Update
			for _, e := range tc.g.Edges() {
				batch = append(batch, stream.Update{U: e.U, V: e.V, Delta: 1, W: 1})
			}
			s.AddBatch(batch)
			var got []map[string]int64
			tr := obs.New()
			tr.OnSpanEnd(func(e obs.Event) {
				if e.Phase == "agm/forest" {
					attrs := map[string]int64{}
					for _, a := range e.Attrs {
						attrs[a.Key] = a.Val
					}
					got = append(got, attrs)
				}
			})
			if _, err := s.SpanningForestOpts(nil, parallel.Default().WithTracer(tr)); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("%s: %d agm/forest spans, want 1", tc.name, len(got))
			}
			used, exhausted := got[0]["rounds_used"], got[0]["rounds_exhausted"]
			if tc.used == 0 && (used < 1 || used >= int64(s.rounds)) || tc.used != 0 && used != tc.used || exhausted != tc.exhausted {
				t.Errorf("%s (cache %v): rounds_used %d of %d, rounds_exhausted %d; want %d used (0: any below the budget), exhausted %d",
					tc.name, caching, used, s.rounds, exhausted, tc.used, tc.exhausted)
			}
		}
	}
}
