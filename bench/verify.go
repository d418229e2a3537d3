package main

import (
	"fmt"
	"math"

	"dynstream"
	"dynstream/internal/graph"
)

// checkForest verifies that forest is a spanning forest of g: every
// edge is an edge of g, the edges close no cycle, and there are exactly
// n minus components(g) of them — which together mean it spans.
func checkForest(g *graph.Graph, forest []graph.Edge) error {
	uf := graph.NewUnionFind(g.N())
	for _, e := range forest {
		if !g.HasEdge(e.U, e.V) {
			return fmt.Errorf("forest edge (%d,%d) is not in the graph", e.U, e.V)
		}
		if !uf.Union(e.U, e.V) {
			return fmt.Errorf("forest edge (%d,%d) closes a cycle", e.U, e.V)
		}
	}
	_, comps := g.Components()
	if want := g.N() - comps; len(forest) != want {
		return fmt.Errorf("forest has %d edges, want n-components = %d", len(forest), want)
	}
	return nil
}

// stretchSources is how many BFS sources the spanner check samples.
const stretchSources = 32

// checkSpanner verifies h ⊆ g and sampled stretch ≤ 2^k.
func checkSpanner(g, h *graph.Graph, k int) error {
	if !h.IsSubgraphOf(g) {
		return fmt.Errorf("spanner is not a subgraph of the input")
	}
	rep := dynstream.VerifyStretch(g, h, stretchSources)
	if rep.Disconnected > 0 {
		return fmt.Errorf("spanner disconnects %d sampled pairs", rep.Disconnected)
	}
	if limit := math.Pow(2, float64(k)); rep.MaxStretch > limit {
		return fmt.Errorf("spanner stretch %.2f exceeds 2^%d", rep.MaxStretch, k)
	}
	return nil
}

// checkSparsifier verifies that h lives on g's support, is connected
// exactly when g is, and has a finite spectral error, which it returns.
func checkSparsifier(g, h *graph.Graph) (eps float64, err error) {
	for _, e := range h.Edges() {
		if !g.HasEdge(e.U, e.V) {
			return 0, fmt.Errorf("sparsifier edge (%d,%d) is not in the input", e.U, e.V)
		}
		if !(e.W > 0) || math.IsInf(e.W, 0) {
			return 0, fmt.Errorf("sparsifier edge (%d,%d) has weight %v", e.U, e.V, e.W)
		}
	}
	if g.Connected() != h.Connected() {
		return 0, fmt.Errorf("sparsifier connected=%v, input connected=%v", h.Connected(), g.Connected())
	}
	eps, err = dynstream.VerifySpectral(g, h)
	if err != nil {
		return 0, fmt.Errorf("spectral check: %w", err)
	}
	if math.IsNaN(eps) || math.IsInf(eps, 0) {
		return 0, fmt.Errorf("spectral error is %v", eps)
	}
	return eps, nil
}

// check verifies one batch answer against the stream's final graph.
func (a *answer) check(final *graph.Graph) (eps float64, err error) {
	switch a.kind {
	case "forest":
		return 0, checkForest(final, a.forest)
	case "spanner":
		return 0, checkSpanner(final, a.g, spannerK)
	case "sparsifier":
		return checkSparsifier(final, a.g)
	}
	return 0, fmt.Errorf("unknown answer kind %q", a.kind)
}

// corrupt damages one checked output in place: the test-only hook that
// proves a wrong answer turns into a non-zero exit. It adds an edge the
// input graph does not have.
func (a *answer) corrupt(final *graph.Graph) {
	for v := 1; v < final.N(); v++ {
		if final.HasEdge(0, v) {
			continue
		}
		if a.kind == "forest" {
			a.forest = append(a.forest, graph.Edge{U: 0, V: v, W: 1})
		} else {
			a.g = a.g.Clone()
			a.g.AddEdge(0, v, 1)
		}
		return
	}
}
