package spanner

import (
	"fmt"
	"math"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
	"dynstream/internal/verify"
)

// TestTheorem1Guarantees checks Theorem 1 over seeds rather than on one
// input: on churned streams of seven graph families (n = 200–210) —
// paths and cycles, where cluster growth is slowest, a grid, a star,
// random, preferential-attachment and ring-of-cliques graphs — every
// two-pass build at K = 2 and 3, at one and two workers, must be a
// subgraph of the final graph, have stretch at most 2^K from every
// source, and stay within Lemma 12's size bound O(K·n^{1+1/K}·log n) at
// TestTwoPassSizeBound's constant 4. The guarantee holds with high
// probability, so what is pinned is the number of violating seeds per
// (family, K) — all zero — and a change that weakens a sketch shows up
// as a count.
func TestTheorem1Guarantees(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	families := []struct {
		name  string
		graph func(seed uint64) *graph.Graph
	}{
		{"path", func(uint64) *graph.Graph { return graph.Path(200) }},
		{"cycle", func(uint64) *graph.Graph { return graph.Cycle(200) }},
		{"grid", func(uint64) *graph.Graph { return graph.Grid(14, 15) }},
		{"star", func(uint64) *graph.Graph { return graph.Star(200) }},
		{"gnp", func(seed uint64) *graph.Graph { return graph.ConnectedGNP(200, 0.04, seed) }},
		{"preferential", func(seed uint64) *graph.Graph { return graph.PreferentialAttachment(200, 3, seed) }},
		{"ring-of-cliques", func(uint64) *graph.Graph { return graph.RingOfCliques(20, 10) }},
	}
	// Violating seeds per family at K = 2 and K = 3.
	pinned := map[string][2]int{
		"path": {0, 0}, "cycle": {0, 0}, "grid": {0, 0}, "star": {0, 0},
		"gnp": {0, 0}, "preferential": {0, 0}, "ring-of-cliques": {0, 0},
	}
	for _, fam := range families {
		for ki, k := range []int{2, 3} {
			violations := 0
			for s := 0; s < seeds; s++ {
				seed := uint64(1000*ki + s)
				g := fam.graph(seed)
				st := stream.WithChurn(g, g.M(), seed+1)
				n := float64(g.N())
				bound := 4 * float64(k) * math.Pow(n, 1+1/float64(k)) * math.Log2(n)
				build := func(workers int) *graph.Graph {
					res, err := BuildTwoPassOpts(st, Config{K: k, Seed: seed + 2}, parallel.Default().WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					return res.Spanner
				}
				// The two-worker build must be the one-worker build, edge for
				// edge, so the checks below hold for both.
				h := build(1)
				if !graphsEqual(build(2), h) {
					t.Fatalf("%s K=%d seed %d: two workers built a different spanner than one", fam.name, k, s)
				}
				var why []string
				if !h.IsSubgraphOf(g) {
					why = append(why, "not a subgraph")
				}
				rep := verify.Stretch(g, h, 0)
				if rep.Disconnected > 0 || rep.Shortcuts > 0 || rep.MaxStretch > math.Exp2(float64(k)) {
					why = append(why, fmt.Sprintf("stretch %.2f (disconnected %d, shortcuts %d)",
						rep.MaxStretch, rep.Disconnected, rep.Shortcuts))
				}
				if float64(h.M()) > bound {
					why = append(why, fmt.Sprintf("%d edges over the size bound %.0f", h.M(), bound))
				}
				if len(why) > 0 {
					violations++
					t.Logf("%s K=%d seed %d: %v", fam.name, k, s, why)
				}
			}
			if want := pinned[fam.name][ki]; violations != want {
				t.Errorf("%s K=%d: %d violating builds over %d seeds, pinned %d", fam.name, k, violations, seeds, want)
			}
		}
	}
}
