package sparsify

import (
	"fmt"
	"math"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/linalg"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// TestCorollary2Guarantees checks Corollary 2 over seeds on three small
// graphs — a clique, a barbell whose bridge every sparsifier must keep,
// and G(24, 0.4) — through SparsifyOpts, the build Build runs, with
// 2-spanner oracles (K = 1) in a 4×9 grid. It pins the number of seeds
// whose spectral ε exceeds 0.8 at Z = 48 and Z = 144: one seed, the
// first, at Z = 48 on the barbell and on G(24, 0.4) (it read 1.95 and
// 1.15), none at Z = 144. Z = 16 is below the Z the corollary needs and
// is a logged row, as is the offline Spielman–Srivastava sparsifier on
// the same graphs. ε is not monotone in Z on one seed (G(24, 0.4)'s
// second seed read 0.43 at Z = 48 and 0.50 at Z = 144), so that is not
// asserted. Short mode runs the first seed at Z = 16 and 48.
//
// The sketch-against-exact row: on K16 at Z = 24 and 72, the
// sketch-oracle sparsifier's ε is within 0.1 of the one whose estimator
// has exact oracles (exactEstimator) and the same sample spanners.
//
// The defaults row: SparsifyOpts at Config{K: 1} and Config{K: 2} reads
// ε ≥ 1 on 22 of 24 runs (the three graphs and G(64, 0.31), three seeds
// each); which two read less is pinned.
func TestCorollary2Guarantees(t *testing.T) {
	seeds, zs, exactZs := 2, []int{16, 48, 144}, []int{24, 72}
	if testing.Short() {
		seeds, zs, exactZs = 1, zs[:2], exactZs[:1]
	}
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"K16", graph.Complete(16)},
		{"barbell(8,1)", graph.Barbell(8, 1)},
		{"gnp(24,0.4)", graph.ConnectedGNP(24, 0.4, 12345)},
	}
	config := func(z int, seed uint64) Config {
		return Config{K: 1, Z: z, Seed: hashing.Mix(seed, 14, uint64(z)),
			Estimate: EstimateConfig{K: 1, J: 4, T: 9, Delta: 0.3, Seed: hashing.Mix(seed, 15, uint64(z))}}
	}
	epsilon := func(g *graph.Graph, res *Result, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		eps, err := linalg.SpectralEpsilon(g, res.Sparsifier)
		if err != nil {
			t.Fatal(err)
		}
		return eps
	}
	// Seeds with ε > 0.8, per instance, at Z = 48 and Z = 144.
	pinned := map[string][2]int{"K16": {0, 0}, "barbell(8,1)": {1, 0}, "gnp(24,0.4)": {1, 0}}
	for _, in := range instances {
		var over [2]int
		for s := 0; s < seeds; s++ {
			seed := uint64(1 + s)
			st := stream.FromGraph(in.g, hashing.Mix(seed, 13))
			for zi, z := range zs {
				res, err := SparsifyOpts(st, config(z, seed), parallel.Default())
				eps := epsilon(in.g, res, err)
				t.Logf("%s seed %d Z=%d: ε %.3f", in.name, s, z, eps)
				if zi > 0 && eps > 0.8 {
					over[zi-1]++
				}
			}
		}
		for zi, z := range zs[1:] {
			if want := pinned[in.name][zi]; over[zi] != want {
				t.Errorf("%s Z=%d: %d seeds of %d with ε > 0.8, pinned %d", in.name, z, over[zi], seeds, want)
			}
		}
		for _, target := range []float64{1, 0.5} {
			h := SpielmanSrivastava(in.g, target, 1, 16)
			eps, err := linalg.SpectralEpsilon(in.g, h)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: Spielman–Srivastava at target ε %.1f keeps %d of %d edges, ε %.3f", in.name, target, h.M(), in.g.M(), eps)
		}
	}

	// The defaults row: Config{K: 1} and Config{K: 2} with only the seed
	// set, so Z = 8, H = T = 2⌈log₂(n+1)⌉, J = 4 and δ = 0.25 — far below
	// the Z the corollary needs — on three seeds (two in short mode). It
	// pins the runs that read ε < 1: two of 24. The barbell's ε of
	// exactly 1 is a dropped bridge.
	under := map[string]bool{"K16 K=1 seed 0": true, "K16 K=2 seed 1": true}
	defaults := append(instances, struct {
		name string
		g    *graph.Graph
	}{"gnp(64,0.31)", graph.ConnectedGNP(64, 0.31, 12345)})
	for _, in := range defaults {
		for _, k := range []int{1, 2} {
			for s := 0; s < seeds+1; s++ {
				seed := uint64(1 + s)
				st := stream.FromGraph(in.g, hashing.Mix(seed, 13))
				res, err := SparsifyOpts(st, Config{K: k, Seed: hashing.Mix(seed, 16, uint64(k))}, parallel.Default())
				eps := epsilon(in.g, res, err)
				run := fmt.Sprintf("%s K=%d seed %d", in.name, k, s)
				kept := res.Sparsifier.M()
				t.Logf("%s at the defaults: ε %.3f, keeps %d of %d edges (%.2f)", run, eps, kept, in.g.M(), float64(kept)/float64(in.g.M()))
				if got := eps < 1-1e-6; got != under[run] {
					t.Errorf("%s at the defaults: ε %.3f, pinned ε < 1: %v", run, eps, under[run])
				}
			}
		}
	}

	g := graph.Complete(16)
	st := stream.FromGraph(g, 28)
	for _, z := range exactZs {
		cfg := config(z, 100)
		res, err := SparsifyOpts(st, cfg, parallel.Default())
		sketchEps := epsilon(g, res, err)
		res, err = sparsifyExact(st, cfg)
		exactEps := epsilon(g, res, err)
		t.Logf("K16 Z=%d: ε %.3f with sketch oracles, %.3f with exact ones", z, sketchEps, exactEps)
		if math.Abs(sketchEps-exactEps) > 0.1 {
			t.Errorf("K16 Z=%d: sketch-oracle ε %.3f is more than 0.1 from the exact-oracle ε %.3f", z, sketchEps, exactEps)
		}
	}
}
