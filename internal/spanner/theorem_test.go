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
				why := stretchViolations(g, h, k)
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

	// K = 1 (stretch 2) is the Õ(n²) corner, so it runs at n ≤ 128, on
	// churned G(n, p) of average degree 8. Pinned: no violating seed.
	for _, n := range []int{64, 128} {
		violations := 0
		for s := 0; s < seeds; s++ {
			seed := uint64(3000 + 100*n + s)
			g := gnpDegree(n, 8, seed)
			st := stream.WithChurn(g, 2*g.M(), seed+1)
			res, err := BuildTwoPass(st, Config{K: 1, Seed: seed + 2})
			if err != nil {
				t.Fatal(err)
			}
			if why := stretchViolations(g, res.Spanner, 1); len(why) > 0 {
				violations++
				t.Logf("gnp n=%d K=1 seed %d: %v", n, s, why)
			}
		}
		if violations != 0 {
			t.Errorf("gnp n=%d K=1: %d violating builds over %d seeds, pinned 0", n, violations, seeds)
		}
	}
}

// stretchViolations lists why h is not a 2^k-spanner of g: it is not a
// subgraph, or from some source a pair is disconnected, shortcut or
// stretched past 2^k. Every vertex is a source.
func stretchViolations(g, h *graph.Graph, k int) []string {
	var why []string
	if !h.IsSubgraphOf(g) {
		why = append(why, "not a subgraph")
	}
	rep := verify.Stretch(g, h, 0)
	if rep.Disconnected > 0 || rep.Shortcuts > 0 || rep.MaxStretch > math.Exp2(float64(k)) {
		why = append(why, fmt.Sprintf("stretch %.2f (disconnected %d, shortcuts %d)",
			rep.MaxStretch, rep.Disconnected, rep.Shortcuts))
	}
	return why
}

// gnpDegree is a connected G(n, p) of average degree about deg.
func gnpDegree(n int, deg float64, seed uint64) *graph.Graph {
	return graph.ConnectedGNP(n, min(1, deg/float64(n-1)), seed)
}

// TestSpaceGuarantees checks Lemmas 15 and 17: the two-pass sketches
// take Õ(K·n^{1+1/K}) words. On G(n, p) of average degree 10 at
// n = 64 … 1 024 and K = 2, 3, SpaceWords stays within
// 4·K·n^{1+1/K}·log₂³n at every n, and the least-squares slope of
// log(SpaceWords / log₂³n) against log n — the power of n the space
// grows with — is at most 1 + 1/K + 0.1. The bound alone leaves room
// for a layout that went dense at small n; the slope does not.
//
// The constant is set by the smallest instance. The first-pass vertex
// sketches grow as K·n·log²n, not with n^{1/K}, so at n = 64 and K = 3
// they alone are 2.23× K·n^{1+1/K}·log₂³n on every seed, and the whole
// footprint read 2.99–3.84× over six seeds. From there the ratio falls
// to 1.54 at n = 1 024, and at K = 2 it stays near 2 at every n
// (logged), so 4 bounds every n.
func TestSpaceGuarantees(t *testing.T) {
	ns := []int{64, 128, 256, 512, 1024}
	for _, k := range []int{2, 3} {
		var xs, ys []float64
		for _, n := range ns {
			seed := uint64(100*k + n)
			st := stream.FromGraph(gnpDegree(n, 10, seed), seed+1)
			res, err := BuildTwoPass(st, Config{K: k, Seed: seed + 2})
			if err != nil {
				t.Fatal(err)
			}
			l3 := math.Pow(math.Log2(float64(n)), 3)
			bound := 4 * float64(k) * math.Pow(float64(n), 1+1/float64(k)) * l3
			ratio := float64(res.SpaceWords) / (bound / 4)
			t.Logf("K=%d n=%d: %d words, %.2f × K·n^{1+1/K}·log₂³n", k, n, res.SpaceWords, ratio)
			if float64(res.SpaceWords) > bound {
				t.Errorf("K=%d n=%d: %d words over the bound %.0f", k, n, res.SpaceWords, bound)
			}
			xs = append(xs, math.Log(float64(n)))
			ys = append(ys, math.Log(float64(res.SpaceWords)/l3))
		}
		slope := fitSlope(xs, ys)
		t.Logf("K=%d: space grows as n^%.2f·log₂³n (Lemma 17: n^%.2f)", k, slope, 1+1/float64(k))
		if limit := 1 + 1/float64(k) + 0.1; slope > limit {
			t.Errorf("K=%d: space grows as n^%.2f·log₂³n, above n^%.2f", k, slope, limit)
		}
	}
}

// fitSlope is the least-squares slope of ys against xs.
func fitSlope(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i] / float64(len(xs))
		my += ys[i] / float64(len(ys))
	}
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return sxy / sxx
}

// TestTheorem3Guarantees checks Theorem 3 over seeds: on churned
// G(n, p) of average degree 20 (n = 256), every single-pass additive
// build at d = 2, 4, 8, 16 is a subgraph with no disconnected or
// shortcut pair and additive error at most theorem3C·n/d. Pinned: no
// violating seed at any d. The largest error seen per d is logged next
// to n/d.
func TestTheorem3Guarantees(t *testing.T) {
	n, seeds := 256, 4
	if testing.Short() {
		n, seeds = 128, 2
	}
	for _, d := range []int{2, 4, 8, 16} {
		violations, worst := 0, 0
		for s := 0; s < seeds; s++ {
			seed := uint64(1000*d + s)
			g := gnpDegree(n, 20, seed)
			st := stream.WithChurn(g, g.M(), seed+1)
			res, err := BuildAdditive(st, AdditiveConfig{D: d, DegreeFactor: 0.5, Seed: seed + 2})
			if err != nil {
				t.Fatal(err)
			}
			rep := verify.Additive(g, res.Spanner, 0)
			worst = max(worst, rep.MaxError)
			if !res.Spanner.IsSubgraphOf(g) || rep.Disconnected > 0 || rep.Shortcuts > 0 || rep.MaxError > additiveBound(n, d) {
				violations++
				t.Logf("d=%d seed %d: error %d (bound %d), disconnected %d, shortcuts %d, subgraph %v", d, s,
					rep.MaxError, additiveBound(n, d), rep.Disconnected, rep.Shortcuts, res.Spanner.IsSubgraphOf(g))
			}
		}
		t.Logf("n=%d d=%d: largest additive error %d over %d seeds (n/d = %d)", n, d, worst, seeds, n/d)
		if violations != 0 {
			t.Errorf("d=%d: %d violating builds over %d seeds, pinned 0", d, violations, seeds)
		}
	}
}

// TestLevelsGuarantees checks that Config.Levels trades size, not
// correctness: on G(128, p) of average degree 10 at K = 2, a build with
// 2, 4, half the default or the default 2·⌈log₂(n+1)⌉+1 subsampling
// levels is still a subgraph with stretch at most 4 and no disconnected
// pair. Pinned: no violating seed at any level count. Mean sizes are
// logged.
func TestLevelsGuarantees(t *testing.T) {
	const n, k = 128, 2
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	full := 2*int(math.Ceil(math.Log2(n+1))) + 1
	for _, levels := range []int{2, 4, full / 2, full} {
		violations, edges := 0, 0
		for s := 0; s < seeds; s++ {
			seed := uint64(100*levels + s)
			g := gnpDegree(n, 10, seed)
			res, err := BuildTwoPass(stream.FromGraph(g, seed+1), Config{K: k, Levels: levels, Seed: seed + 2})
			if err != nil {
				t.Fatal(err)
			}
			edges += res.Spanner.M()
			if why := stretchViolations(g, res.Spanner, k); len(why) > 0 {
				violations++
				t.Logf("levels=%d seed %d: %v", levels, s, why)
			}
		}
		t.Logf("levels=%d: %.0f spanner edges on average", levels, float64(edges)/float64(seeds))
		if violations != 0 {
			t.Errorf("levels=%d: %d violating builds over %d seeds, pinned 0", levels, violations, seeds)
		}
	}
}
