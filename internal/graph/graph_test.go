package graph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddRemoveEdge(t *testing.T) {
	g := New(5)
	g.AddUnitEdge(0, 1)
	g.AddEdge(3, 2, 2.5) // reversed order canonicalizes
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("edges missing")
	}
	if w, ok := g.Weight(3, 2); !ok || w != 2.5 {
		t.Errorf("weight = %v,%v", w, ok)
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	g.RemoveEdge(1, 0)
	if g.HasEdge(0, 1) || g.M() != 1 {
		t.Error("remove failed")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop did not panic")
		}
	}()
	New(3).AddUnitEdge(1, 1)
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddUnitEdge(2, 3)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(0, 3)
	es := g.Edges()
	if len(es) != 3 || es[0] != (Edge{0, 1, 1}) || es[1] != (Edge{0, 3, 1}) || es[2] != (Edge{2, 3, 1}) {
		t.Errorf("edges = %v", es)
	}
}

func TestNeighborsDegree(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Errorf("center degree = %d", g.Degree(0))
	}
	if g.Degree(3) != 1 {
		t.Errorf("leaf degree = %d", g.Degree(3))
	}
	nb := g.Neighbors(0)
	if len(nb) != 4 || nb[0] != 1 || nb[3] != 4 {
		t.Errorf("neighbors = %v", nb)
	}
}

func TestNeighborsAfterMutation(t *testing.T) {
	g := New(3)
	g.AddUnitEdge(0, 1)
	_ = g.Neighbors(0)  // triggers adjacency build
	g.AddUnitEdge(0, 2) // mutation must invalidate cache
	if got := len(g.Neighbors(0)); got != 2 {
		t.Errorf("neighbors after mutation = %d, want 2", got)
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(6)
	d := g.BFS(0)
	for i := 0; i < 6; i++ {
		if d[i] != i {
			t.Errorf("d[%d] = %d", i, d[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddUnitEdge(0, 1)
	d := g.BFS(0)
	if d[2] != -1 || d[3] != -1 {
		t.Errorf("unreachable distances = %v", d)
	}
}

func TestDijkstraAgreesWithBFSOnUnitWeights(t *testing.T) {
	g := ConnectedGNP(40, 0.1, 7)
	for src := 0; src < 5; src++ {
		bfs := g.BFS(src)
		dij := g.Dijkstra(src)
		for v := 0; v < g.N(); v++ {
			if bfs[v] == -1 {
				if dij[v] < 1e307 {
					t.Fatalf("v=%d: BFS unreachable, Dijkstra %v", v, dij[v])
				}
				continue
			}
			if math.Abs(float64(bfs[v])-dij[v]) > 1e-9 {
				t.Fatalf("v=%d: BFS %d vs Dijkstra %v", v, bfs[v], dij[v])
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	g.AddEdge(0, 2, 5)
	d := g.Dijkstra(0)
	if d[2] != 5 || d[1] != 10 {
		t.Errorf("d = %v", d)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddUnitEdge(0, 1)
	g.AddUnitEdge(1, 2)
	g.AddUnitEdge(4, 5)
	ids, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if ids[0] != ids[2] || ids[4] != ids[5] || ids[0] == ids[4] || ids[3] == ids[0] {
		t.Errorf("ids = %v", ids)
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if !Path(5).Connected() {
		t.Error("path reported disconnected")
	}
}

func TestIsSubgraphOf(t *testing.T) {
	g := Path(4)
	h := Cycle(4)
	if !g.IsSubgraphOf(h) {
		t.Error("path should be subgraph of cycle")
	}
	if h.IsSubgraphOf(g) {
		t.Error("cycle is not subgraph of path")
	}
}

func TestCutWeight(t *testing.T) {
	g := Complete(4)
	side := []bool{true, true, false, false}
	if got := g.CutWeight(side); got != 4 {
		t.Errorf("cut = %v, want 4", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Path(3)
	c := g.Clone()
	c.AddUnitEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("clone mutation leaked")
	}
}

func TestGNPEdgeCount(t *testing.T) {
	g := GNP(100, 0.1, 3)
	want := 0.1 * 100 * 99 / 2
	if float64(g.M()) < 0.7*want || float64(g.M()) > 1.3*want {
		t.Errorf("M = %d, want ~%v", g.M(), want)
	}
}

func TestGNPDeterministic(t *testing.T) {
	a := GNP(50, 0.2, 9)
	b := GNP(50, 0.2, 9)
	if a.M() != b.M() || !a.IsSubgraphOf(b) {
		t.Error("same seed produced different graphs")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Errorf("N = %d", g.N())
	}
	// 3*(4-1) horizontal + 4*(3-1) vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Errorf("M = %d, want 17", g.M())
	}
	d := g.BFS(0)
	if d[11] != 5 { // (2,3): 2+3 hops
		t.Errorf("corner distance = %d, want 5", d[11])
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(5, 3)
	if g.N() != 13 {
		t.Errorf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Error("barbell disconnected")
	}
	// Distance across: through 3 bridge vertices = 4 bridge edges plus
	// within-clique hops.
	d := g.BFS(0)
	if d[12] < 4 {
		t.Errorf("cross-barbell distance = %d", d[12])
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Errorf("N=%d M=%d", g.N(), g.M())
	}
	d := g.BFS(0)
	if d[15] != 4 {
		t.Errorf("antipodal distance = %d, want 4", d[15])
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(200, 2, 11)
	if !g.Connected() {
		t.Error("PA graph disconnected")
	}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > maxDeg {
			maxDeg = g.Degree(v)
		}
	}
	if maxDeg < 10 {
		t.Errorf("max degree = %d; PA should produce hubs", maxDeg)
	}
}

func TestRandomWeighted(t *testing.T) {
	g := RandomWeighted(Path(50), 1, 100, 13)
	for _, e := range g.Edges() {
		if e.W < 1 || e.W > 100 {
			t.Errorf("weight %v out of range", e.W)
		}
	}
	if g.M() != 49 {
		t.Errorf("M = %d", g.M())
	}
}

func TestConnectedGNPAlwaysConnected(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := ConnectedGNP(60, 0.02, seed)
		if !g.Connected() {
			t.Fatalf("seed %d: disconnected", seed)
		}
	}
}

func TestCompleteCount(t *testing.T) {
	g := Complete(7)
	if g.M() != 21 {
		t.Errorf("M = %d, want 21", g.M())
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("union returned false on distinct sets")
	}
	if uf.Union(1, 0) {
		t.Fatal("union returned true on same set")
	}
	if !uf.Same(0, 1) || uf.Same(0, 2) {
		t.Fatal("Same is wrong")
	}
	if uf.Sets() != 3 {
		t.Errorf("sets = %d, want 3", uf.Sets())
	}
}

func TestUnionFindInvariants(t *testing.T) {
	// Property: after any union sequence, Same is an equivalence
	// relation consistent with the union history (checked against a
	// naive labeling).
	f := func(ops []uint8) bool {
		const n = 12
		uf := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for _, op := range ops {
			a, b := int(op)%n, int(op/16)%n
			uf.Union(a, b)
			relabel(label[a], label[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(102))}); err != nil {
		t.Error(err)
	}
}

func TestEdgeCanon(t *testing.T) {
	e := Edge{U: 5, V: 2, W: 1}.Canon()
	if e.U != 2 || e.V != 5 {
		t.Errorf("canon = %v", e)
	}
}

func TestTotalWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	if g.TotalWeight() != 5 {
		t.Errorf("total = %v", g.TotalWeight())
	}
}

// TestEdgesOrderMatchesReflectionSort: Edges lists random graphs in the
// order the sort.Slice comparator it used to sort with puts them in.
func TestEdgesOrderMatchesReflectionSort(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := RandomWeighted(GNP(40+int(seed)*7, 0.08, seed), 0.5, 9, seed)
		want := make([]Edge, 0, g.M())
		for k, w := range g.edges {
			want = append(want, Edge{U: k[0], V: k[1], W: w})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].U != want[j].U {
				return want[i].U < want[j].U
			}
			return want[i].V < want[j].V
		})
		got := g.Edges()
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("seed %d: Edges order differs from the (U, V) sort:\n got %v\nwant %v", seed, got, want)
		}
	}
}
