package dynstream

import (
	"context"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// Front-door equivalence: Build with WithWorkers(p) must produce
// output identical to WithWorkers(1) for the same configuration (run
// under -race; the workers sweep disjoint ranges of one state).

func edgesEqual(t *testing.T, name string, a, b *Graph) {
	t.Helper()
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("%s: %d edges vs %d", name, len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", name, i, ea[i], eb[i])
		}
	}
}

func TestBuildSpannerParallelFacade(t *testing.T) {
	g := graph.ConnectedGNP(50, 0.15, 301)
	st := StreamWithChurn(g, 200, 302)
	serial, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 303}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 2, Seed: 303}}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, "spanner", par.Spanner, serial.Spanner)
	rep := VerifyStretch(g, par.Spanner, 10)
	if rep.Disconnected > 0 || rep.Shortcuts > 0 {
		t.Fatalf("invalid parallel spanner: %+v", rep)
	}
}

func TestBuildAdditiveSpannerParallelFacade(t *testing.T) {
	g := graph.ConnectedGNP(50, 0.2, 304)
	st := StreamWithChurn(g, 150, 305)
	serial, err := Build(context.Background(), st, AdditiveTarget{Config: AdditiveConfig{D: 3, Seed: 306}}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(context.Background(), st, AdditiveTarget{Config: AdditiveConfig{D: 3, Seed: 306}}, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, "additive", par.Spanner, serial.Spanner)
}

func TestBuildSparsifierParallelFacade(t *testing.T) {
	g := graph.Complete(10)
	st := StreamFromGraph(g, 307)
	cfg := SparsifierConfig{
		K: 1, Z: 6, Seed: 308,
		Estimate: EstimateConfig{K: 1, J: 2, T: 5, Delta: 0.34, Seed: 309},
	}
	serial, err := Build(context.Background(), st, SparsifierTarget{Config: cfg}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(context.Background(), st, SparsifierTarget{Config: cfg}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, "sparsifier", par.Sparsifier, serial.Sparsifier)
}

func TestForestSketchParallelFacade(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.1, 310)
	st := StreamWithChurn(g, 300, 311)
	serial := NewForestSketch(312, st.N(), ForestConfig{})
	if err := st.Replay(func(u Update) error { serial.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	wantForest, err := serial.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(context.Background(), st, ForestTarget{Seed: 312, Config: ForestConfig{}}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	gotForest, err := par.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotForest) != len(wantForest) {
		t.Fatalf("forest: %d edges vs serial %d", len(gotForest), len(wantForest))
	}
	for i := range gotForest {
		if gotForest[i] != wantForest[i] {
			t.Fatalf("forest edge %d: %+v vs serial %+v", i, gotForest[i], wantForest[i])
		}
	}
}

func TestForestSketchMergeFacade(t *testing.T) {
	// The Merge surface the distributed example uses, through the alias.
	g := graph.ConnectedGNP(40, 0.15, 313)
	st := StreamFromGraph(g, 314)
	shards, err := stream.Split(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewForestSketch(315, st.N(), ForestConfig{})
	b := NewForestSketch(315, st.N(), ForestConfig{})
	for i, sk := range []*ForestSketch{a, b} {
		if err := shards[i].Replay(func(u Update) error { sk.AddUpdate(u); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	forest, err := a.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	uf := graph.NewUnionFind(st.N())
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("forest edge (%d,%d) not in graph", e.U, e.V)
		}
		uf.Union(e.U, e.V)
	}
	if uf.Sets() != 1 {
		t.Errorf("merged-sketch forest spans %d components, want 1", uf.Sets())
	}
}

func TestKConnectivityParallelFacade(t *testing.T) {
	g := graph.ConnectedGNP(30, 0.25, 316)
	st := StreamWithChurn(g, 100, 317)
	serial := NewKConnectivity(318, st.N(), 2)
	if err := st.Replay(func(u Update) error { serial.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := serial.CertificateGraph()
	if err != nil {
		t.Fatal(err)
	}
	kc, err := Build(context.Background(), st, KConnectivityTarget{Seed: 318, K: 2}, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := kc.CertificateGraph()
	if err != nil {
		t.Fatal(err)
	}
	edgesEqual(t, "kcert", got, want)
}

func TestParallelFacadeRejectsBadWorkers(t *testing.T) {
	st := NewMemoryStream(4)
	if _, err := Build(context.Background(), st, SpannerTarget{Config: SpannerConfig{K: 1}}, WithWorkers(0)); err == nil {
		t.Error("Build accepted workers=0")
	}
	if _, err := Build(context.Background(), st, ForestTarget{Seed: 1}, WithWorkers(-1)); err == nil {
		t.Error("Build accepted workers=-1")
	}
}
