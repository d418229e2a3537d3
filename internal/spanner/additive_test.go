package spanner

import (
	"bytes"
	"fmt"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// theorem3C is the constant of Theorem 3's additive error bound, stated
// once for every additive-spanner test here: a valid build has
// d_H(u,v) − d_G(u,v) ≤ theorem3C·n/d for every connected pair.
//
// Theorem 3's proof routes a shortest path through E_low where it can
// and, between its high-degree vertices, through the spanning forest F'
// of the graph with each center's star contracted. Each star cluster
// has diameter 2 and F' crosses it at most once, so the detour costs a
// constant number of hops per cluster, and there are |C| ≈ CenterFactor·n/d
// = 2n/d clusters. The proof's constant is therefore a small multiple of
// CenterFactor = 2 and gives nothing below 2, so the tests keep the
// envelope 2·n/d they have always used. Every measured error is already
// at most n/d (TestTheorem3Guarantees logs them).
const theorem3C = 2

// additiveBound is Theorem 3's error bound theorem3C·n/d.
func additiveBound(n, d int) int { return theorem3C * n / d }

func buildAdditiveFromGraph(t *testing.T, g *graph.Graph, cfg AdditiveConfig) *AdditiveResult {
	t.Helper()
	st := stream.FromGraph(g, cfg.Seed+500)
	res, err := BuildAdditive(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// maxAdditiveError returns max over sampled pairs of d_H - d_G.
func maxAdditiveError(t *testing.T, g, h *graph.Graph, sources int) int {
	t.Helper()
	worst := 0
	n := g.N()
	step := 1
	if sources > 0 && n > sources {
		step = n / sources
	}
	for src := 0; src < n; src += step {
		dg := g.BFS(src)
		dh := h.BFS(src)
		for v := 0; v < n; v++ {
			if dg[v] < 0 {
				continue
			}
			if dh[v] == -1 {
				t.Fatalf("additive spanner disconnects %d-%d", src, v)
			}
			if dh[v] < dg[v] {
				t.Fatalf("additive spanner shortcut at (%d,%d)", src, v)
			}
			if dh[v]-dg[v] > worst {
				worst = dh[v] - dg[v]
			}
		}
	}
	return worst
}

func TestAdditiveSubgraph(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.2, 1)
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 4, Seed: 2})
	if !res.Spanner.IsSubgraphOf(g) {
		t.Error("additive spanner contains non-graph edges")
	}
}

func TestAdditiveErrorBound(t *testing.T) {
	// Theorem 3: additive error O(n/d), on a moderately dense random
	// graph.
	g := graph.ConnectedGNP(80, 0.2, 3)
	d := 4
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: d, Seed: 4})
	bound := additiveBound(g.N(), d)
	if err := maxAdditiveError(t, g, res.Spanner, 20); err > bound {
		t.Errorf("additive error %d exceeds bound %d", err, bound)
	}
}

func TestAdditiveDenseGraphCompresses(t *testing.T) {
	g := graph.Complete(60)
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 4, Seed: 5})
	if res.Spanner.M() >= g.M() {
		t.Errorf("no compression: %d of %d edges", res.Spanner.M(), g.M())
	}
	if err := maxAdditiveError(t, g, res.Spanner, 30); err > additiveBound(g.N(), 4) {
		t.Errorf("additive error %d", err)
	}
}

func TestAdditiveSparseGraphKeptExactly(t *testing.T) {
	// On a path, all vertices are low-degree, so E_low = E and the
	// spanner is the whole graph: additive error 0.
	g := graph.Path(60)
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 4, Seed: 6})
	if res.Spanner.M() != g.M() {
		t.Errorf("path: %d of %d edges kept", res.Spanner.M(), g.M())
	}
	if err := maxAdditiveError(t, g, res.Spanner, 0); err != 0 {
		t.Errorf("path additive error %d, want 0", err)
	}
}

func TestAdditiveChurnStream(t *testing.T) {
	g := graph.ConnectedGNP(50, 0.25, 7)
	st := stream.WithChurn(g, 500, 8)
	res, err := BuildAdditive(st, AdditiveConfig{D: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spanner.IsSubgraphOf(g) {
		t.Fatal("churn leaked deleted edges")
	}
	if e := maxAdditiveError(t, g, res.Spanner, 10); e > additiveBound(g.N(), 4) {
		t.Errorf("additive error %d under churn", e)
	}
}

func TestAdditiveDisconnected(t *testing.T) {
	g := graph.New(40)
	for i := 0; i < 19; i++ {
		g.AddUnitEdge(i, i+1)
		g.AddUnitEdge(20+i, 21+i)
	}
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 2, Seed: 10})
	_, cG := g.Components()
	_, cH := res.Spanner.Components()
	if cG != cH {
		t.Errorf("components: %d vs %d", cH, cG)
	}
}

func TestAdditiveEmpty(t *testing.T) {
	st := stream.NewMemoryStream(10)
	res, err := BuildAdditive(st, AdditiveConfig{D: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanner.M() != 0 {
		t.Errorf("empty graph gave %d edges", res.Spanner.M())
	}
}

func TestAdditiveHubAndSpokes(t *testing.T) {
	// Star: center is high-degree, leaves are low-degree; all edges
	// must survive (every edge is a bridge).
	g := graph.Star(50)
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 4, Seed: 12})
	if res.Spanner.M() != g.M() {
		t.Errorf("star spanner has %d of %d edges", res.Spanner.M(), g.M())
	}
}

func TestAdditivePreferentialAttachment(t *testing.T) {
	g := graph.PreferentialAttachment(100, 3, 13)
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 4, Seed: 14})
	if !res.Spanner.IsSubgraphOf(g) {
		t.Fatal("non-subgraph")
	}
	if e := maxAdditiveError(t, g, res.Spanner, 20); e > additiveBound(g.N(), 4) {
		t.Errorf("PA additive error %d", e)
	}
}

func TestAdditiveSpaceGrowsWithD(t *testing.T) {
	g := graph.ConnectedGNP(50, 0.2, 15)
	small := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 2, Seed: 16})
	large := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 8, Seed: 16})
	if large.SpaceWords <= small.SpaceWords {
		t.Errorf("space: d=8 (%d words) should exceed d=2 (%d words)",
			large.SpaceWords, small.SpaceWords)
	}
}

func TestAdditiveF0DegreeMode(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.3, 17)
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 4, Seed: 18, UseF0Degree: true})
	if !res.Spanner.IsSubgraphOf(g) {
		t.Fatal("non-subgraph in F0 mode")
	}
	if e := maxAdditiveError(t, g, res.Spanner, 10); e > additiveBound(g.N(), 4) {
		t.Errorf("F0-mode additive error %d", e)
	}
}

func TestAdditiveUpdateAfterFinish(t *testing.T) {
	a := NewAdditive(10, AdditiveConfig{D: 2, Seed: 19})
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := a.Update(stream.Update{U: 0, V: 1, Delta: 1}); err == nil {
		t.Error("Update after Finish accepted")
	}
	if _, err := a.Finish(); err == nil {
		t.Error("double Finish accepted")
	}
}

func TestAdditiveDiagnostics(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.3, 20)
	res := buildAdditiveFromGraph(t, g, AdditiveConfig{D: 3, Seed: 21})
	if res.Centers <= 0 {
		t.Error("no centers sampled")
	}
	if res.LowDegree < 0 || res.LowDegree > g.N() {
		t.Errorf("low-degree count %d out of range", res.LowDegree)
	}
}

// TestAdditiveAddBatchAcrossChunks: AddBatch feeds the per-vertex
// sketches update by update and hands the forest sketch the whole
// batch, which the AGM kernel sorts and sweeps in chunks of 4n updates
// at this n. A batch spanning several chunks, a mid-stream extraction
// (which subtracts E_low from the forest as one batch) and the rest of
// the stream must leave the same state and the same spanner as Update
// per element.
func TestAdditiveAddBatchAcrossChunks(t *testing.T) {
	const n = 50
	g := graph.ConnectedGNP(n, 0.25, 31)
	var ups []stream.Update
	if err := stream.WithChurn(g, 900, 32).Replay(func(u stream.Update) error {
		ups = append(ups, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ups) < 3*4*n {
		t.Fatalf("stream of %d updates does not span three %d-update chunks", len(ups), 4*n)
	}
	cfg := AdditiveConfig{D: 4, Seed: 33}
	one, batched := NewAdditive(n, cfg), NewAdditive(n, cfg)
	half := len(ups) / 2
	for i, part := range [][]stream.Update{ups[:half], ups[half:]} {
		for _, u := range part {
			if err := one.Update(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := batched.AddBatch(part); err != nil {
			t.Fatal(err)
		}
		r1, err := one.ExtractOpts(parallel.Default())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := batched.ExtractOpts(parallel.Default())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(r1.Spanner.Edges()) != fmt.Sprint(r2.Spanner.Edges()) {
			t.Fatalf("part %d: spanners differ", i)
		}
		b1, err := one.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := batched.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("part %d: marshal bytes differ", i)
		}
	}
}
