package agm

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// TestTheorem10Guarantees checks the linear-sketch substrate of
// Theorem 10 and the two applications built on it, over seeds, on
// churned streams ingested in batches:
//
//   - the spanning forest of G(n, p) of average degree 6 at n = 64, 128
//     and 256 is a forest of graph edges that connects exactly the
//     graph's components;
//   - the k = 4 connectivity certificate of two 24-cliques joined by
//     c = 1, 2 or 3 edges keeps that cut whole: its weight is c;
//   - bipartiteness is answered right on an even cycle, an odd cycle, a
//     grid, and the grid with one chord that closes a triangle.
//
// Pinned: no failing seed in any row.
func TestTheorem10Guarantees(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	ingest := func(st stream.Stream, add func([]stream.Update)) {
		t.Helper()
		if err := stream.ReplayBatches(st, 0, func(ups []stream.Update) error { add(ups); return nil }); err != nil {
			t.Fatal(err)
		}
	}

	for _, n := range []int{64, 128, 256} {
		failed := 0
		for s := 0; s < seeds; s++ {
			seed := uint64(1000*n + s)
			g := graph.ConnectedGNP(n, 6/float64(n-1), seed)
			sk := New(seed+1, n, Config{})
			ingest(stream.WithChurn(g, 2*g.M(), seed+2), sk.AddBatch)
			forest, err := sk.SpanningForest(nil)
			if err != nil {
				t.Fatal(err)
			}
			if why := forestFault(g, forest); why != "" {
				failed++
				t.Logf("forest n=%d seed %d: %s", n, s, why)
			}
		}
		if failed != 0 {
			t.Errorf("forest n=%d: %d of %d seeds failed, pinned 0", n, failed, seeds)
		}
	}

	const n, half, k = 48, 24, 4
	side := make([]bool, n)
	for v := 0; v < half; v++ {
		side[v] = true
	}
	for c := 1; c <= 3; c++ {
		g := graph.New(n)
		for u := 0; u < half; u++ {
			for v := u + 1; v < half; v++ {
				g.AddUnitEdge(u, v)
				g.AddUnitEdge(u+half, v+half)
			}
		}
		for i := 0; i < c; i++ {
			g.AddUnitEdge(i, half+i)
		}
		failed := 0
		for s := 0; s < seeds; s++ {
			seed := uint64(100*c + s)
			kc := NewKConnectivity(seed, n, k)
			ingest(stream.WithChurn(g, g.M(), seed+1), kc.AddBatch)
			cert, err := kc.CertificateGraph()
			if err != nil {
				t.Fatal(err)
			}
			if cut := cert.CutWeight(side); cut != float64(c) {
				failed++
				t.Logf("certificate c=%d seed %d: cut %v of %d edges", c, s, cut, cert.M())
			}
		}
		if failed != 0 {
			t.Errorf("certificate c=%d: %d of %d seeds lost the cut, pinned 0", c, failed, seeds)
		}
	}

	chorded := graph.Grid(8, n/8)
	chorded.AddUnitEdge(0, n/8+1) // with (0,1) and (1,n/8+1), a triangle
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"even cycle", graph.Cycle(n), true},
		{"odd cycle", graph.Cycle(n - 1), false},
		{"grid", graph.Grid(8, n/8), true},
		{"grid+odd chord", chorded, false},
	} {
		failed := 0
		for s := 0; s < seeds; s++ {
			seed := uint64(7000 + s)
			b := NewBipartiteness(seed, c.g.N())
			ingest(stream.WithChurn(c.g, c.g.M(), seed+1), b.AddBatch)
			got, err := b.IsBipartite()
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				failed++
				t.Logf("bipartiteness %s seed %d: answered %v", c.name, s, got)
			}
		}
		if failed != 0 {
			t.Errorf("bipartiteness %s: %d of %d seeds answered wrong, pinned 0", c.name, failed, seeds)
		}
	}
}
