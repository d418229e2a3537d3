package spanner

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// Property-based tests: spanner invariants over random small graphs
// and random update sequences.

// randomGraphFromBytes builds a graph on n vertices whose edges are
// selected by the byte string (two bytes per candidate edge).
func randomGraphFromBytes(n int, data []byte) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < len(data); i += 2 {
		u := int(data[i]) % n
		v := int(data[i+1]) % n
		if u != v {
			g.AddUnitEdge(u, v)
		}
	}
	return g
}

func TestPropertyTwoPassAlwaysValid(t *testing.T) {
	// For any graph: subgraph, no disconnection, stretch ≤ 2^k.
	f := func(data []byte, seed uint64) bool {
		const n, k = 24, 2
		g := randomGraphFromBytes(n, data)
		st := stream.FromGraph(g, seed)
		res, err := BuildTwoPass(st, Config{K: k, Seed: seed ^ 0xabc})
		if err != nil {
			return false
		}
		if !res.Spanner.IsSubgraphOf(g) {
			return false
		}
		for src := 0; src < n; src += 4 {
			dg := g.BFS(src)
			dh := res.Spanner.BFS(src)
			for v := 0; v < n; v++ {
				if dg[v] <= 0 {
					continue
				}
				if dh[v] == -1 || dh[v] < dg[v] || dh[v] > (1<<k)*dg[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(104))}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAdditiveAlwaysValid(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		const n, d = 24, 3
		g := randomGraphFromBytes(n, data)
		st := stream.FromGraph(g, seed)
		res, err := BuildAdditive(st, AdditiveConfig{D: d, Seed: seed ^ 0xdef})
		if err != nil {
			return false
		}
		if !res.Spanner.IsSubgraphOf(g) {
			return false
		}
		for src := 0; src < n; src += 4 {
			dg := g.BFS(src)
			dh := res.Spanner.BFS(src)
			for v := 0; v < n; v++ {
				if dg[v] < 0 || v == src {
					continue
				}
				// Validity: connected, no shortcut, error within
				// Theorem 3's bound.
				if dh[v] == -1 || dh[v] < dg[v] || dh[v]-dg[v] > additiveBound(n, d) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(105))}); err != nil {
		t.Error(err)
	}
}

func TestPropertyChurnEquivalence(t *testing.T) {
	// A churned stream with the same final graph yields a spanner with
	// the same validity guarantees — deleted edges never appear.
	f := func(data []byte, churnSeed uint64) bool {
		const n = 20
		g := randomGraphFromBytes(n, data)
		st := stream.WithChurn(g, 50, churnSeed)
		res, err := BuildTwoPass(st, Config{K: 2, Seed: churnSeed ^ 0x123})
		if err != nil {
			return false
		}
		return res.Spanner.IsSubgraphOf(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(106))}); err != nil {
		t.Error(err)
	}
}

func TestPropertySpannerIdempotentPerSeed(t *testing.T) {
	// Same stream + same seed => identical spanner (determinism).
	f := func(data []byte) bool {
		const n = 20
		g := randomGraphFromBytes(n, data)
		st := stream.FromGraph(g, 5)
		r1, err1 := BuildTwoPass(st, Config{K: 2, Seed: 99})
		r2, err2 := BuildTwoPass(st, Config{K: 2, Seed: 99})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Spanner.M() == r2.Spanner.M() &&
			r1.Spanner.IsSubgraphOf(r2.Spanner)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(107))}); err != nil {
		t.Error(err)
	}
}
