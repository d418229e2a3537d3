package agm

import (
	"fmt"
	"math/rand"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

func BenchmarkSketchUpdate(b *testing.B) {
	s := New(1, 256, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddEdge(i%255, (i+1)%255+1, 1)
	}
}

func BenchmarkSpanningForest(b *testing.B) {
	g := graph.ConnectedGNP(128, 0.05, 2)
	s := New(3, g.N(), Config{})
	_ = stream.FromGraph(g, 4).Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SpanningForest(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipartiteness(b *testing.B) {
	g := graph.Cycle(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bip := NewBipartiteness(uint64(i), g.N())
		_ = stream.FromGraph(g, 5).Replay(func(u stream.Update) error {
			bip.AddUpdate(u)
			return nil
		})
		if _, err := bip.IsBipartite(); err != nil {
			b.Fatal(err)
		}
	}
}

// serveShape is the serving benchmark's input shape: a connected base
// graph (random recursive tree plus random extras) with a sliding window
// of extra edges, and a churn log whose every step inserts one fresh
// edge and deletes the oldest extra, so the live edge count never moves.
func serveShape(n, baseEdges, window, steps int, seed int64) (preload, churn []stream.Update) {
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ u, v int }
	have := map[pair]bool{}
	fresh := func() pair {
		for {
			u, v := rng.Intn(n), rng.Intn(n)
			if u > v {
				u, v = v, u
			}
			if p := (pair{u, v}); u != v && !have[p] {
				have[p] = true
				return p
			}
		}
	}
	ins := func(p pair, d int) stream.Update { return stream.Update{U: p.u, V: p.v, Delta: d, W: 1} }
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		p := pair{order[i], order[rng.Intn(i)]}
		if p.u > p.v {
			p.u, p.v = p.v, p.u
		}
		have[p] = true
		preload = append(preload, ins(p, 1))
	}
	for len(preload) < baseEdges {
		preload = append(preload, ins(fresh(), 1))
	}
	extras := make([]pair, 0, window+steps)
	for i := 0; i < window; i++ {
		extras = append(extras, fresh())
		preload = append(preload, ins(extras[i], 1))
	}
	rng.Shuffle(len(preload), func(i, j int) { preload[i], preload[j] = preload[j], preload[i] })
	for i := 0; i < steps; i++ {
		p := fresh()
		extras = append(extras, p)
		delete(have, extras[i])
		churn = append(churn, ins(p, 1), ins(extras[i], -1))
	}
	return preload, churn
}

// benchRequery times a cached re-query after perQuery churn updates on
// the serving benchmark's graph (n vertices, 2n base + 2n window
// edges); the AddBatch between queries is off the clock.
func benchRequery(b *testing.B, n, perQuery int) {
	warm := 8
	preload, churn := serveShape(n, 2*n, 2*n, (b.N+warm)*perQuery/2, 11)
	s := New(5, n, Config{})
	s.EnableDecodeCache(true)
	s.AddBatch(preload)
	p := parallel.Default()
	step := func() {
		s.AddBatch(churn[:perQuery])
		churn = churn[perQuery:]
	}
	for i := 0; i < warm; i++ {
		if _, err := s.SpanningForestOpts(nil, p); err != nil {
			b.Fatal(err)
		}
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SpanningForestOpts(nil, p); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		step()
		b.StartTimer()
	}
}

// BenchmarkRequeryFresh is the serve-fresh shape: 56 updates per query,
// at the serving benchmark's n = 10 000 and at 4n, where a re-query
// that pays for churn and not for n costs about the same.
func BenchmarkRequeryFresh(b *testing.B) {
	for _, n := range []int{10000, 40000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRequery(b, n, 56) })
	}
}

// BenchmarkRequeryChurn is the serve-churn shape: 1 638 updates per
// query (4 % of the edges at n = 10 000), at n = 10 000 and 40 000.
func BenchmarkRequeryChurn(b *testing.B) {
	for _, n := range []int{10000, 40000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRequery(b, n, 1638) })
	}
}

// BenchmarkForestCold is the uncached extraction on the same graph: what
// a one-shot Build pays, and the ceiling a re-query is measured against.
func BenchmarkForestCold(b *testing.B) {
	const n = 10000
	preload, _ := serveShape(n, 20000, 20000, 0, 11)
	s := New(5, n, Config{})
	s.AddBatch(preload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SpanningForestOpts(nil, parallel.Default()); err != nil {
			b.Fatal(err)
		}
	}
}
