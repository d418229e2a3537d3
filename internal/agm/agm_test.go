package agm

import (
	"fmt"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// forestFromGraph streams g into a fresh sketch and extracts a forest.
func forestFromGraph(t *testing.T, g *graph.Graph, seed uint64, groups [][]int) []graph.Edge {
	t.Helper()
	s := New(seed, g.N(), Config{})
	st := stream.FromGraph(g, seed+1)
	if err := st.Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	forest, err := s.SpanningForest(groups)
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// checkSpanningForest verifies forest ⊆ g, acyclicity, and that it
// connects exactly the components of g.
func checkSpanningForest(t *testing.T, g *graph.Graph, forest []graph.Edge) {
	t.Helper()
	if why := forestFault(g, forest); why != "" {
		t.Error(why)
	}
}

// forestFault says why forest is not a spanning forest of g, or returns
// "" if it is one.
func forestFault(g *graph.Graph, forest []graph.Edge) string {
	uf := graph.NewUnionFind(g.N())
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			return fmt.Sprintf("forest edge (%d,%d) not in graph", e.U, e.V)
		}
		if !uf.Union(e.U, e.V) {
			return fmt.Sprintf("forest has a cycle at (%d,%d)", e.U, e.V)
		}
	}
	if _, want := g.Components(); uf.Sets() != want {
		return fmt.Sprintf("forest leaves %d components, graph has %d", uf.Sets(), want)
	}
	return ""
}

func TestForestPath(t *testing.T) {
	g := graph.Path(20)
	checkSpanningForest(t, g, forestFromGraph(t, g, 1, nil))
}

func TestForestGNP(t *testing.T) {
	g := graph.ConnectedGNP(60, 0.08, 2)
	checkSpanningForest(t, g, forestFromGraph(t, g, 3, nil))
}

func TestForestDisconnected(t *testing.T) {
	g := graph.New(30)
	// Three components: 0-9, 10-19, 20-29 (paths).
	for b := 0; b < 3; b++ {
		for i := 0; i < 9; i++ {
			g.AddUnitEdge(b*10+i, b*10+i+1)
		}
	}
	forest := forestFromGraph(t, g, 4, nil)
	checkSpanningForest(t, g, forest)
	if len(forest) != 27 {
		t.Errorf("forest has %d edges, want 27", len(forest))
	}
}

func TestForestWithDeletions(t *testing.T) {
	// Stream a complete graph, then delete everything except a path.
	n := 16
	s := New(5, n, Config{})
	full := graph.Complete(n)
	_ = stream.FromGraph(full, 6).Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	keep := graph.Path(n)
	for _, e := range full.Edges() {
		if !keep.HasEdge(e.U, e.V) {
			s.AddEdge(e.U, e.V, -1)
		}
	}
	forest, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanningForest(t, keep, forest)
}

func TestForestChurnStream(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.1, 7)
	st := stream.WithChurn(g, 300, 8)
	s := New(9, g.N(), Config{})
	_ = st.Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	forest, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanningForest(t, g, forest)
}

func TestSubtractEdges(t *testing.T) {
	// G = cycle; subtract one edge; forest of the remaining path.
	n := 12
	g := graph.Cycle(n)
	s := New(10, n, Config{})
	_ = stream.FromGraph(g, 11).Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	s.SubtractTo(map[[2]int]int64{{0, 1}: 1})
	remaining := g.Clone()
	remaining.RemoveEdge(0, 1)
	forest, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanningForest(t, remaining, forest)
}

func TestSupernodeGroups(t *testing.T) {
	// Two cliques {0..4}, {5..9} joined by edge (4,5). Collapse each
	// clique: the contracted graph has 2 supernodes and the forest must
	// be exactly one edge crossing between them.
	g := graph.New(10)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddUnitEdge(u, v)
			g.AddUnitEdge(u+5, v+5)
		}
	}
	g.AddUnitEdge(4, 5)
	s := New(12, 10, Config{})
	_ = stream.FromGraph(g, 13).Replay(func(u stream.Update) error {
		s.AddUpdate(u)
		return nil
	})
	forest, err := s.SpanningForest([][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 {
		t.Fatalf("contracted forest has %d edges, want 1: %v", len(forest), forest)
	}
	e := forest[0]
	if !(e.U == 4 && e.V == 5) {
		t.Errorf("crossing edge = (%d,%d), want (4,5)", e.U, e.V)
	}
}

func TestSupernodeGroupValidation(t *testing.T) {
	s := New(14, 5, Config{})
	if _, err := s.SpanningForest([][]int{{0, 99}}); err == nil {
		t.Error("out-of-range group vertex accepted")
	}
}

func TestForestEmptyGraph(t *testing.T) {
	s := New(15, 10, Config{})
	forest, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 0 {
		t.Errorf("empty graph produced %d forest edges", len(forest))
	}
}

func TestForestSingleEdge(t *testing.T) {
	s := New(16, 4, Config{})
	s.AddEdge(2, 3, 1)
	forest, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 1 || forest[0].U != 2 || forest[0].V != 3 {
		t.Errorf("forest = %v", forest)
	}
}

func TestForestMultigraphMultiplicities(t *testing.T) {
	// Multiplicities > 1 should not confuse the samplers.
	s := New(17, 6, Config{})
	for i := 0; i < 5; i++ {
		s.AddEdge(0, 1, 1) // multiplicity 5
	}
	s.AddEdge(1, 2, 3)
	s.AddEdge(3, 4, 2)
	forest, err := s.SpanningForest(nil)
	if err != nil {
		t.Fatal(err)
	}
	uf := graph.NewUnionFind(6)
	for _, e := range forest {
		uf.Union(e.U, e.V)
	}
	if !uf.Same(0, 2) || !uf.Same(3, 4) || uf.Same(0, 3) {
		t.Errorf("forest misses connectivity: %v", forest)
	}
}

func TestReliabilityAcrossSeeds(t *testing.T) {
	// Theorem 10 is a whp guarantee; measure it across seeds.
	g := graph.ConnectedGNP(30, 0.15, 20)
	failures := 0
	for seed := uint64(0); seed < 20; seed++ {
		s := New(seed*31+1, g.N(), Config{})
		_ = stream.FromGraph(g, seed).Replay(func(u stream.Update) error {
			s.AddUpdate(u)
			return nil
		})
		forest, err := s.SpanningForest(nil)
		if err != nil {
			t.Fatal(err)
		}
		uf := graph.NewUnionFind(g.N())
		for _, e := range forest {
			uf.Union(e.U, e.V)
		}
		if uf.Sets() != 1 {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("spanning forest failed on %d/20 seeds", failures)
	}
}

func TestSpaceWordsScales(t *testing.T) {
	small := New(18, 10, Config{})
	large := New(18, 100, Config{})
	if small.SpaceWords() <= 0 || large.SpaceWords() <= small.SpaceWords() {
		t.Error("space accounting wrong")
	}
}
