package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// compareEdges is the reference (U, V) order SortEdges must reproduce.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// randomCanonical returns up to m distinct canonical edges on n
// vertices, in random order, with random weights.
func randomCanonical(rng *rand.Rand, n, m int) []Edge {
	seen := make(map[[2]int]bool)
	var es []Edge
	for tries := 0; len(es) < m && tries < 4*m; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[[2]int{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]int{min(u, v), max(u, v)}] = true
		es = append(es, Edge{U: min(u, v), V: max(u, v), W: rng.Float64()})
	}
	return es
}

// TestSortEdgesMatchesComparisonSort: on random canonical edge sets,
// empty ones included, the radix order is the comparison sort's, weights
// travelling with their pairs. n spans one to five radix passes, and the
// hub and path sets leave some passes with a single digit value.
func TestSortEdgesMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{1, 2, 64, 10_000, 1 << 20, 1 << 24} {
		sets := [][]Edge{nil, {}}
		for _, m := range []int{1, 2, 3, 100, 5_000} {
			sets = append(sets, randomCanonical(rng, n, m))
		}
		var hub, path []Edge
		for v := 1; v < min(n, 3_000); v++ {
			hub = append(hub, Edge{U: 0, V: v, W: float64(v)})
			path = append(path, Edge{U: v - 1, V: v, W: 1})
		}
		rng.Shuffle(len(hub), func(i, j int) { hub[i], hub[j] = hub[j], hub[i] })
		slices.Reverse(path)
		sets = append(sets, hub, path)
		for i, es := range sets {
			want := slices.Clone(es)
			slices.SortFunc(want, compareEdges)
			SortEdges(es, n)
			if !slices.Equal(es, want) {
				t.Fatalf("n=%d set %d (%d edges): radix order differs from the (U, V) sort", n, i, len(es))
			}
		}
	}
}

func TestSortEdgesRefusesOutOfRange(t *testing.T) {
	for _, es := range [][]Edge{{{U: 0, V: 4}}, {{U: 1, V: 2}, {U: -1, V: 2}}, {{U: 3, V: 1}, {U: 2, V: 9}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v on 4 vertices: no panic", es)
				}
			}()
			SortEdges(es, 4)
		}()
	}
}

// TestRebuildAdjacencyMatchesSortedReference: after every mutation step
// each vertex's adjacency — neighbors and weights — is the per-vertex
// sorted list built from the edge map, and Neighbors reports it.
func TestRebuildAdjacencyMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 64, 500} {
		g := New(n)
		for step := 0; step < 6; step++ {
			for _, e := range randomCanonical(rng, n, 3*n) {
				g.AddEdge(e.U, e.V, e.W)
			}
			for _, e := range randomCanonical(rng, n, n) {
				g.RemoveEdge(e.U, e.V)
			}
			want := make([][]halfEdge, n)
			for k, w := range g.edges {
				want[k[0]] = append(want[k[0]], halfEdge{to: k[1], w: w})
				want[k[1]] = append(want[k[1]], halfEdge{to: k[0], w: w})
			}
			for u := range want {
				slices.SortFunc(want[u], func(a, b halfEdge) int { return cmp.Compare(a.to, b.to) })
				nb := g.Neighbors(u)
				if !slices.Equal(g.adj[u], want[u]) || len(nb) != len(want[u]) || g.Degree(u) != len(nb) {
					t.Fatalf("n=%d step %d vertex %d: adjacency %v, want %v", n, step, u, g.adj[u], want[u])
				}
				for i, he := range want[u] {
					if nb[i] != he.to {
						t.Fatalf("n=%d step %d vertex %d: Neighbors %v", n, step, u, nb)
					}
				}
			}
		}
	}
}

func BenchmarkSortEdges(b *testing.B) {
	for _, n := range []int{64, 10_000} {
		es := randomCanonical(rand.New(rand.NewSource(1)), n, n-1)
		work := make([]Edge, len(es))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, es)
				SortEdges(work, n)
			}
		})
	}
}
