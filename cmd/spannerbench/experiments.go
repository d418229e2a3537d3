package main

import (
	"fmt"
	"math"

	"dynstream/internal/baseline"
	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/linalg"
	"dynstream/internal/lowerbound"
	"dynstream/internal/sketch"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
	"dynstream/internal/stream"
	"dynstream/internal/verify"
)

// gnpWithAvgDegree returns a connected G(n, p) with average degree ~deg.
func gnpWithAvgDegree(n int, deg float64, seed uint64) *graph.Graph {
	p := deg / float64(n-1)
	if p > 1 {
		p = 1
	}
	return graph.ConnectedGNP(n, p, seed)
}

// runE1 verifies Theorem 1: stretch ≤ 2^k, subgraph, connectivity.
func runE1(p *params) error {
	ns := []int{64, 128, 256}
	if p.quick {
		ns = []int{64, 128}
	}
	fmt.Println("   n     k  m(G)   m(H)   maxStretch  bound  valid")
	for _, n := range ns {
		for _, k := range []int{1, 2, 3} {
			if k == 1 && n > 128 {
				continue // k=1 is the Õ(n²) corner; skip at larger n
			}
			g := gnpWithAvgDegree(n, 8, hashing.Mix(p.seed, uint64(n), uint64(k)))
			st := stream.WithChurn(g, 2*g.M(), hashing.Mix(p.seed, 1, uint64(n)))
			res, err := spanner.BuildTwoPass(st, spanner.Config{K: k, Seed: hashing.Mix(p.seed, 2, uint64(n), uint64(k))})
			if err != nil {
				return err
			}
			rep := verify.Stretch(g, res.Spanner, 16)
			valid := res.Spanner.IsSubgraphOf(g) && rep.Disconnected == 0 && rep.Shortcuts == 0
			fmt.Printf("   %-5d %d  %-6d %-6d %-11.2f %-6d %v\n",
				n, k, g.M(), res.Spanner.M(), rep.MaxStretch, 1<<k, valid)
		}
	}
	return nil
}

// runE2 measures spanner size against the Lemma 12 bound.
func runE2(p *params) error {
	ns := []int{64, 128, 256, 384}
	if p.quick {
		ns = []int{64, 128}
	}
	fmt.Println("   n     k  m(H)    k·n^{1+1/k}·log2(n)   ratio")
	for _, k := range []int{2, 3} {
		for _, n := range ns {
			g := gnpWithAvgDegree(n, 10, hashing.Mix(p.seed, 3, uint64(n), uint64(k)))
			st := stream.FromGraph(g, hashing.Mix(p.seed, 4, uint64(n)))
			res, err := spanner.BuildTwoPass(st, spanner.Config{K: k, Seed: hashing.Mix(p.seed, 5, uint64(n), uint64(k))})
			if err != nil {
				return err
			}
			bound := float64(k) * math.Pow(float64(n), 1+1/float64(k)) * math.Log2(float64(n))
			fmt.Printf("   %-5d %d  %-7d %-21.0f %.3f\n",
				n, k, res.Spanner.M(), bound, float64(res.Spanner.M())/bound)
		}
	}
	return nil
}

// runE3 measures sketch space against the Theorem 1 bound.
func runE3(p *params) error {
	ns := []int{64, 128, 256, 384}
	if p.quick {
		ns = []int{64, 128}
	}
	fmt.Println("   n     k  spaceWords  k·n^{1+1/k}·log2(n)^3  ratio")
	for _, k := range []int{2, 3} {
		for _, n := range ns {
			g := gnpWithAvgDegree(n, 10, hashing.Mix(p.seed, 6, uint64(n), uint64(k)))
			st := stream.FromGraph(g, hashing.Mix(p.seed, 7, uint64(n)))
			res, err := spanner.BuildTwoPass(st, spanner.Config{K: k, Seed: hashing.Mix(p.seed, 8, uint64(n), uint64(k))})
			if err != nil {
				return err
			}
			l := math.Log2(float64(n))
			bound := float64(k) * math.Pow(float64(n), 1+1/float64(k)) * l * l * l
			fmt.Printf("   %-5d %d  %-11d %-22.0f %.3f\n",
				n, k, res.SpaceWords, bound, float64(res.SpaceWords)/bound)
		}
	}
	return nil
}

// runE4 verifies Theorem 3: additive error ≤ O(n/d), space Õ(nd).
func runE4(p *params) error {
	n := 256
	if p.quick {
		n = 128
	}
	fmt.Println("   n     d   m(G)   m(H)   maxAddErr  bound(n/d)  spaceWords")
	for _, d := range []int{2, 4, 8, 16} {
		g := gnpWithAvgDegree(n, 20, hashing.Mix(p.seed, 9, uint64(d)))
		st := stream.WithChurn(g, g.M(), hashing.Mix(p.seed, 10, uint64(d)))
		res, err := spanner.BuildAdditive(st, spanner.AdditiveConfig{
			D: d, DegreeFactor: 0.5, Seed: hashing.Mix(p.seed, 11, uint64(d))})
		if err != nil {
			return err
		}
		rep := verify.Additive(g, res.Spanner, 16)
		fmt.Printf("   %-5d %-3d %-6d %-6d %-10d %-11d %d\n",
			n, d, g.M(), res.Spanner.M(), rep.MaxError, n/d, res.SpaceWords)
	}
	return nil
}

// runE5 plays the Theorem 4 INDEX game across algorithm space budgets.
func runE5(p *params) error {
	blocks, blockSize, trials := 8, 16, 24
	if p.quick {
		blocks, blockSize, trials = 4, 16, 12
	}
	fmt.Printf("   game: %d blocks of G(%d, 1/2); instance entropy %d bits\n",
		blocks, blockSize, blocks*blockSize*(blockSize-1)/2)
	fmt.Println("   algD  successRate  spaceWords")
	for _, algD := range []int{1, 2, 4, 8, 16, 24} {
		res, err := lowerbound.Play(lowerbound.GameConfig{
			Blocks: blocks, BlockSize: blockSize, AlgD: algD,
			Trials: trials, Seed: hashing.Mix(p.seed, 12, uint64(algD)),
		})
		if err != nil {
			return err
		}
		fmt.Printf("   %-5d %-12.2f %d\n", algD, res.SuccessRate(), res.SpaceWords)
	}
	return nil
}

// runE6 measures the two-pass sparsifier's spectral error vs Z.
func runE6(p *params) error {
	zs := []int{16, 48, 144}
	if p.quick {
		zs = []int{16, 48}
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"K16", graph.Complete(16)},
		{"barbell(8,1)", graph.Barbell(8, 1)},
		{"gnp(24,0.4)", graph.ConnectedGNP(24, 0.4, p.seed)},
	}
	fmt.Println("   graph         Z    m(G)  m(G')  spectralEps  cutEps")
	for _, c := range cases {
		st := stream.FromGraph(c.g, hashing.Mix(p.seed, 13))
		for _, z := range zs {
			res, err := sparsify.Sparsify(st, sparsify.Config{
				K: 1, Z: z, Seed: hashing.Mix(p.seed, 14, uint64(z)),
				Estimate: sparsify.EstimateConfig{
					K: 1, J: 4, T: 9, Delta: 0.3,
					Seed: hashing.Mix(p.seed, 15, uint64(z)), ExactOracles: false,
				},
			})
			if err != nil {
				return err
			}
			eps, err := linalg.SpectralEpsilon(c.g, res.Sparsifier)
			if err != nil {
				return err
			}
			cut := verify.CutEpsilon(c.g, res.Sparsifier, 64, p.seed)
			fmt.Printf("   %-13s %-4d %-5d %-6d %-12.3f %.3f\n",
				c.name, z, c.g.M(), res.Sparsifier.M(), eps, cut)
		}
	}
	return nil
}

// runE7 measures the SS08 baseline on the same instances as E6.
func runE7(p *params) error {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"K16", graph.Complete(16)},
		{"barbell(8,1)", graph.Barbell(8, 1)},
		{"gnp(24,0.4)", graph.ConnectedGNP(24, 0.4, p.seed)},
		{"K64", graph.Complete(64)},
	}
	fmt.Println("   graph         eps_target  m(G)   m(H)  spectralEps")
	for _, c := range cases {
		for _, eps := range []float64{1.0, 0.5} {
			h := sparsify.SpielmanSrivastava(c.g, eps, 1.0, hashing.Mix(p.seed, 16))
			got, err := linalg.SpectralEpsilon(c.g, h)
			if err != nil {
				return err
			}
			fmt.Printf("   %-13s %-11.1f %-6d %-5d %.3f\n", c.name, eps, c.g.M(), h.M(), got)
		}
	}
	return nil
}

// runE8 measures AGM spanning-forest reliability and space under churn.
func runE8(p *params) error {
	ns := []int{64, 128, 256}
	trials := 10
	if p.quick {
		ns = []int{64, 128}
		trials = 5
	}
	fmt.Println("   n     trials  successRate  spaceWords")
	for _, n := range ns {
		g := gnpWithAvgDegree(n, 6, hashing.Mix(p.seed, 17, uint64(n)))
		ok := 0
		space := 0
		for trial := 0; trial < trials; trial++ {
			s := stream.WithChurn(g, 2*g.M(), hashing.Mix(p.seed, 18, uint64(n), uint64(trial)))
			sk := newForest(hashing.Mix(p.seed, 19, uint64(n), uint64(trial)), n)
			if err := stream.ReplayBatches(s, 0, func(ups []stream.Update) error { sk.AddBatch(ups); return nil }); err != nil {
				return err
			}
			forest, err := sk.SpanningForest(nil)
			if err != nil {
				return err
			}
			space = sk.SpaceWords()
			uf := graph.NewUnionFind(n)
			valid := true
			for _, e := range forest {
				if !g.HasEdge(e.U, e.V) {
					valid = false
				}
				uf.Union(e.U, e.V)
			}
			_, want := g.Components()
			if valid && uf.Sets() == want {
				ok++
			}
		}
		fmt.Printf("   %-5d %-7d %-12.2f %d\n", n, trials, float64(ok)/float64(trials), space)
	}
	return nil
}

// runE9 compares the two-pass spanner against the offline baselines.
func runE9(p *params) error {
	n := 128
	if p.quick {
		n = 96
	}
	g := gnpWithAvgDegree(n, 12, hashing.Mix(p.seed, 20))
	fmt.Printf("   graph: n=%d m=%d\n", n, g.M())
	fmt.Println("   algorithm        k  stretchBound  m(H)   maxStretch  model")
	for _, k := range []int{2, 3} {
		st := stream.FromGraph(g, hashing.Mix(p.seed, 21, uint64(k)))
		tw, err := spanner.BuildTwoPass(st, spanner.Config{K: k, Seed: hashing.Mix(p.seed, 22, uint64(k))})
		if err != nil {
			return err
		}
		repT := verify.Stretch(g, tw.Spanner, 16)
		bs := baseline.BaswanaSen(g, k, hashing.Mix(p.seed, 23, uint64(k)))
		repB := verify.Stretch(g, bs, 16)
		gr := baseline.Greedy(g, k)
		repG := verify.Stretch(g, gr, 16)
		fmt.Printf("   two-pass (Thm1)  %d  2^k = %-7d %-6d %-11.2f dynamic stream, 2 passes\n",
			k, 1<<k, tw.Spanner.M(), repT.MaxStretch)
		fmt.Printf("   baswana-sen      %d  2k-1 = %-6d %-6d %-11.2f offline\n",
			k, 2*k-1, bs.M(), repB.MaxStretch)
		fmt.Printf("   greedy           %d  2k-1 = %-6d %-6d %-11.2f offline\n",
			k, 2*k-1, gr.M(), repG.MaxStretch)
	}
	return nil
}

// runA1 ablates the number of E_j subsampling levels in Algorithm 1.
func runA1(p *params) error {
	n := 128
	if p.quick {
		n = 96
	}
	g := gnpWithAvgDegree(n, 10, hashing.Mix(p.seed, 24))
	fmt.Println("   levels  m(H)   disconnectedPairs  maxStretch")
	full := 2*int(math.Ceil(math.Log2(float64(n+1)))) + 1
	for _, levels := range []int{2, 4, full / 2, full} {
		st := stream.FromGraph(g, hashing.Mix(p.seed, 25, uint64(levels)))
		res, err := spanner.BuildTwoPass(st, spanner.Config{
			K: 2, Seed: hashing.Mix(p.seed, 26, uint64(levels)), Levels: levels,
		})
		if err != nil {
			return err
		}
		rep := verify.Stretch(g, res.Spanner, 16)
		fmt.Printf("   %-7d %-6d %-18d %.2f\n",
			levels, res.Spanner.M(), rep.Disconnected, rep.MaxStretch)
	}
	return nil
}

// runA2 ablates the sparse-recovery budget: decode rate vs load.
func runA2(p *params) error {
	const capacity = 16
	fmt.Println("   load(items/B)  decodeRate  (B=16, 100 trials each)")
	for _, load := range []float64{0.5, 1.0, 1.5, 2.0, 3.0} {
		items := int(load * capacity)
		ok := 0
		const trials = 100
		for t := 0; t < trials; t++ {
			s := sketch.NewSketchB(hashing.Mix(p.seed, 27, uint64(t), uint64(items)), capacity)
			rng := hashing.NewSplitMix64(uint64(t)*7919 + uint64(items))
			want := map[uint64]int64{}
			for len(want) < items {
				k := rng.Next() % 1000003
				if _, dup := want[k]; !dup {
					want[k] = 1
					s.Add(k, 1)
				}
			}
			if got, decoded := s.Decode(); decoded && len(got) == items {
				ok++
			}
		}
		fmt.Printf("   %-14.1f %.2f\n", load, float64(ok)/trials)
	}
	return nil
}

// runA3 ablates the ESTIMATE oracle kind: sketch (streaming) vs exact.
func runA3(p *params) error {
	g := graph.Complete(16)
	st := stream.FromGraph(g, hashing.Mix(p.seed, 28))
	fmt.Println("   oracles  Z    spectralEps  spaceWords")
	for _, exact := range []bool{false, true} {
		name := "sketch"
		if exact {
			name = "exact"
		}
		for _, z := range []int{24, 72} {
			if p.quick && z > 24 {
				continue
			}
			res, err := sparsify.Sparsify(st, sparsify.Config{
				K: 1, Z: z, Seed: hashing.Mix(p.seed, 29, uint64(z)),
				Estimate: sparsify.EstimateConfig{
					K: 1, J: 4, T: 9, Delta: 0.3,
					Seed: hashing.Mix(p.seed, 30, uint64(z)), ExactOracles: exact,
				},
			})
			if err != nil {
				return err
			}
			eps, err := linalg.SpectralEpsilon(g, res.Sparsifier)
			if err != nil {
				return err
			}
			fmt.Printf("   %-8s %-4d %-12.3f %d\n", name, z, eps, res.SpaceWords)
		}
	}
	return nil
}

// runE10 exercises the substrate applications from [AGM12a] that the
// paper's toolbox includes: k-edge-connectivity certificates and
// bipartiteness, both from linear sketches under churn.
func runE10(p *params) error {
	n := 96
	if p.quick {
		n = 48
	}
	fmt.Println("   k-connectivity certificate (two cliques joined by c edges):")
	fmt.Println("   cutEdges  k  certCut  certEdges  m(G)  spaceWords")
	for _, cut := range []int{1, 2, 3} {
		g := graph.New(n)
		half := n / 2
		for u := 0; u < half; u++ {
			for v := u + 1; v < half; v++ {
				g.AddUnitEdge(u, v)
				g.AddUnitEdge(u+half, v+half)
			}
		}
		for c := 0; c < cut; c++ {
			g.AddUnitEdge(c, half+c)
		}
		const k = 4
		kc := newKConn(hashing.Mix(p.seed, 31, uint64(cut)), n, k)
		st := stream.WithChurn(g, g.M(), hashing.Mix(p.seed, 32, uint64(cut)))
		if err := stream.ReplayBatches(st, 0, func(ups []stream.Update) error { kc.AddBatch(ups); return nil }); err != nil {
			return err
		}
		cert, err := kc.CertificateGraph()
		if err != nil {
			return err
		}
		side := make([]bool, n)
		for v := 0; v < half; v++ {
			side[v] = true
		}
		fmt.Printf("   %-9d %d  %-8.0f %-10d %-5d %d\n",
			cut, k, cert.CutWeight(side), cert.M(), g.M(), kc.SpaceWords())
	}

	fmt.Println("   bipartiteness under churn:")
	fmt.Println("   graph          bipartite  verdict  correct")
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"even cycle", graph.Cycle(n), true},
		{"odd cycle", graph.Cycle(n - 1), false},
		{"grid", graph.Grid(8, n/8), true},
		{"grid+odd chord", gridWithChord(n), false},
	}
	for _, c := range cases {
		b := newBipartite(hashing.Mix(p.seed, 33), c.g.N())
		st := stream.WithChurn(c.g, c.g.M(), hashing.Mix(p.seed, 34))
		if err := stream.ReplayBatches(st, 0, func(ups []stream.Update) error { b.AddBatch(ups); return nil }); err != nil {
			return err
		}
		got, err := b.IsBipartite()
		if err != nil {
			return err
		}
		fmt.Printf("   %-14s %-10v %-8v %v\n", c.name, c.want, got, got == c.want)
	}
	return nil
}

// gridWithChord returns a grid plus one odd-cycle-creating chord.
func gridWithChord(n int) *graph.Graph {
	g := graph.Grid(8, n/8)
	g.AddUnitEdge(0, n/8+1) // diagonal chord creating a 3-cycle with (0,1),(1,n/8+1)
	return g
}
