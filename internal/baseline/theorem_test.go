package baseline

import (
	"math"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
	"dynstream/internal/verify"
)

// TestBaselineGuarantees puts the two-pass streaming spanner next to
// the offline (2K−1)-spanners on one instance, G(128, p) of average
// degree 12, at K = 2 and 3: the two-pass spanner's stretch is at most
// 2^K (Theorem 1), and Baswana–Sen's and greedy's at most 2K−1. All
// three are subgraphs with no disconnected pair. The sizes are logged:
// the streaming spanner pays its looser stretch in edges too.
func TestBaselineGuarantees(t *testing.T) {
	g := graph.ConnectedGNP(128, 12.0/127, 20)
	for _, k := range []int{2, 3} {
		res, err := spanner.BuildTwoPass(stream.FromGraph(g, 21), spanner.Config{K: k, Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range []struct {
			name  string
			h     *graph.Graph
			bound float64
		}{
			{"two-pass", res.Spanner, math.Exp2(float64(k))},
			{"baswana-sen", BaswanaSen(g, k, 23), float64(2*k - 1)},
			{"greedy", Greedy(g, k), float64(2*k - 1)},
		} {
			rep := verify.Stretch(g, sp.h, 0)
			t.Logf("K=%d %s: %d of %d edges, stretch %.2f (bound %.0f)", k, sp.name, sp.h.M(), g.M(), rep.MaxStretch, sp.bound)
			if !sp.h.IsSubgraphOf(g) || rep.Disconnected > 0 || rep.Shortcuts > 0 || rep.MaxStretch > sp.bound {
				t.Errorf("K=%d %s: stretch %.2f over %.0f (disconnected %d, shortcuts %d, subgraph %v)", k, sp.name,
					rep.MaxStretch, sp.bound, rep.Disconnected, rep.Shortcuts, sp.h.IsSubgraphOf(g))
			}
		}
	}
}
