package sparsify

import (
	"math"
	"runtime"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/linalg"
	"dynstream/internal/parallel"
	"dynstream/internal/stream"
)

// testEstimateCfg keeps oracle grids small enough for unit tests.
func testEstimateCfg(seed uint64) EstimateConfig {
	return EstimateConfig{K: 2, J: 3, T: 8, Delta: 0.34, Seed: seed}
}

func TestSpannerOracleStretch(t *testing.T) {
	g := graph.ConnectedGNP(40, 0.15, 1)
	st := stream.FromGraph(g, 2)
	o, err := NewSpannerOracle(st, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Alpha() != 4 {
		t.Errorf("alpha = %v", o.Alpha())
	}
	d := g.BFS(0)
	for v := 1; v < g.N(); v++ {
		est := o.Dist(0, v)
		if d[v] == -1 {
			continue
		}
		if est < float64(d[v])-1e-9 {
			t.Fatalf("oracle underestimates: %v < %d", est, d[v])
		}
		if est > 4*float64(d[v])+1e-9 {
			t.Fatalf("oracle exceeds stretch: %v > 4·%d", est, d[v])
		}
	}
}

func TestEstimatorBridgeVsCliqueEdge(t *testing.T) {
	// The defining property of robust connectivity: a bridge
	// disconnects at mild subsampling (small t*, large q̂), a clique
	// edge survives deep subsampling (large t*, small q̂).
	g := graph.Barbell(8, 1) // cliques of 8 joined through one vertex
	st := stream.FromGraph(g, 6)
	est, err := exactEstimator(st, testEstimateCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	// Bridge endpoints: vertex 7 (clique A) — 8 (bridge) — 9..16.
	bridgeT := est.QExp(7, 8)
	cliqueT := est.QExp(0, 1)
	if bridgeT >= cliqueT {
		t.Errorf("bridge t*=%d should be smaller than clique-edge t*=%d", bridgeT, cliqueT)
	}
	if q := est.QHat(7, 8); q != math.Pow(2, -float64(bridgeT)) {
		t.Errorf("QHat inconsistent with QExp: %v vs 2^-%d", q, bridgeT)
	}
}

func TestEstimatorSketchOraclesAgreeDirectionally(t *testing.T) {
	// With sketch-based (stretch-4) oracles the exact ordering should
	// still hold on the barbell.
	g := graph.Barbell(6, 1)
	st := stream.FromGraph(g, 8)
	est, err := NewEstimator(st, testEstimateCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	// Stretch-α oracles declare disconnection early, which can shrink
	// the clique edge's t* by up to log2(α²) = 2K — the α² slop of the
	// KP12 sampling lemma. Allow that slack.
	if b, c := est.QExp(5, 6), est.QExp(0, 1); b > c+2 {
		t.Errorf("sketch-oracle bridge t*=%d > clique t*=%d + slack", b, c)
	}
}

func TestSampleOnceOnlyGraphEdges(t *testing.T) {
	g := graph.ConnectedGNP(24, 0.25, 10)
	st := stream.FromGraph(g, 11)
	cfg := Config{K: 2, Z: 1, Seed: 12, Estimate: testEstimateCfg(13)}
	est, err := exactEstimator(st, cfg.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	x, space, err := SampleOnce(st, est, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if space <= 0 {
		t.Error("sample space accounting must be positive")
	}
	for _, e := range x.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("sample invented edge (%d,%d)", e.U, e.V)
		}
		if e.W <= 0 {
			t.Errorf("non-positive weight %v", e.W)
		}
	}
}

func TestSparsifySupportAndWeights(t *testing.T) {
	g := graph.ConnectedGNP(20, 0.3, 14)
	st := stream.FromGraph(g, 15)
	res, err := sparsifyExact(st, Config{K: 2, Z: 4, Seed: 16, Estimate: testEstimateCfg(17)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 4 {
		t.Errorf("samples = %d", res.Samples)
	}
	for _, e := range res.Sparsifier.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("sparsifier invented edge (%d,%d)", e.U, e.V)
		}
		if e.W <= 0 {
			t.Fatalf("weight %v", e.W)
		}
	}
}

func TestSparsifyPreservesBridge(t *testing.T) {
	// A barbell's bridge carries all cross-cut quadratic form; any
	// useful sparsifier must keep it (its q̂ is large, so it is sampled
	// at a dense rate).
	// The bridge's q̂ is ~2^-3, so each sample captures it with
	// probability ~1/8; Z must be large enough that missing it across
	// all samples is a <1% event (Z=40: (7/8)^40 ≈ 0.5%).
	g := graph.Barbell(6, 1)
	st := stream.FromGraph(g, 18)
	res, err := sparsifyExact(st, Config{K: 2, Z: 40, Seed: 19, Estimate: testEstimateCfg(20)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sparsifier.HasEdge(5, 6) || !res.Sparsifier.HasEdge(6, 7) {
		t.Error("sparsifier dropped a bridge edge")
	}
}

func TestSparsifyQualityOnSmallDenseGraph(t *testing.T) {
	// A loose end-to-end quality bound at test scale: ε < 1 means the
	// quadratic form is preserved within a factor 2 everywhere — far
	// from trivial (dropping any bridge would give ε = 1).
	g := graph.Complete(16)
	st := stream.FromGraph(g, 21)
	cfg := Config{K: 1, Z: 48, Seed: 22,
		Estimate: EstimateConfig{K: 1, J: 3, T: 8, Delta: 0.34, Seed: 23}}
	res, err := Sparsify(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := linalg.SpectralEpsilon(g, res.Sparsifier)
	if err != nil {
		t.Fatal(err)
	}
	if eps >= 0.8 {
		t.Errorf("spectral ε = %v on K16 with Z=48", eps)
	}
}

func TestSparsifyWeightedClasses(t *testing.T) {
	base := graph.ConnectedGNP(16, 0.3, 24)
	g := graph.RandomWeighted(base, 1, 16, 25)
	st := stream.FromGraph(g, 26)
	res, err := SparsifyWeightedWith(st, Config{K: 2, Z: 3, Seed: 27, Estimate: testEstimateCfg(28)}, 2, sparsifyExact)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Sparsifier.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("weighted sparsifier invented edge (%d,%d)", e.U, e.V)
		}
	}
	if res.SpaceWords <= 0 {
		t.Error("space accounting")
	}
}

func TestSparsifyWeightedBadBase(t *testing.T) {
	st := stream.NewMemoryStream(4)
	if _, err := SparsifyWeighted(st, Config{}, 1); err == nil {
		t.Error("classBase=1 accepted")
	}
}

func TestSpielmanSrivastavaQuality(t *testing.T) {
	g := graph.Complete(40)
	h := SpielmanSrivastava(g, 0.5, 1.5, 29)
	eps, err := linalg.SpectralEpsilon(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if eps > 0.9 {
		t.Errorf("SS08 ε = %v", eps)
	}
	if h.M() == 0 {
		t.Error("SS08 returned empty graph")
	}
}

func TestSpielmanSrivastavaKeepsTreesExactly(t *testing.T) {
	// On a tree every edge has p_e = 1 (w·R = 1), so H = G exactly.
	g := graph.Star(20)
	h := SpielmanSrivastava(g, 0.5, 2, 30)
	if h.M() != g.M() {
		t.Errorf("tree: kept %d of %d edges", h.M(), g.M())
	}
	for _, e := range h.Edges() {
		if math.Abs(e.W-1) > 1e-9 {
			t.Errorf("tree edge reweighted to %v", e.W)
		}
	}
}

func TestSpielmanSrivastavaCompresses(t *testing.T) {
	g := graph.Complete(60)
	h := SpielmanSrivastava(g, 1.0, 0.5, 31)
	if h.M() >= g.M() {
		t.Errorf("no compression: %d of %d", h.M(), g.M())
	}
}

func TestSpielmanSrivastavaEmpty(t *testing.T) {
	h := SpielmanSrivastava(graph.New(5), 0.5, 1, 32)
	if h.M() != 0 {
		t.Error("empty input gave nonempty output")
	}
}

// TestSparsifyAllocBudget: the sparsifier allocates well under the
// space it reports, through the serial reference and through
// SparsifyOpts, the one-grid build Build runs. SpaceWords sums the
// provisioned oracle grid and the Z·H inner spanners. Keyed tables that
// allocated every provisioned bucket on first touch read 0.138× here;
// tables that hold only the buckets updates reach, 0.068×, later
// 0.063×; power tables sized to n and n² instead of 2^64, 0.045×; and
// table slots left nil until first write, with peels through per-worker
// scratch and cluster decodes in place, 0.028× (Sparsify) and 0.024×
// (SparsifyOpts).
// Both passes sweep one grid at any worker count, so workers 2
// allocates within 3 % of workers 1; a pass-1 grid per worker, merged,
// read 1.10–1.15×.
//
// Objects are counted too: keyed tables and SketchB shapes with row
// Polys, a bank and power tables of their own made 184 309 (Sparsify)
// and 181 860 (SparsifyOpts, workers 1) per build; with seeded banks and
// each keyed table's hash state held in the table over one window slab,
// 88 204 and 85 758. The budget is 0.6× of the SparsifyOpts reading.
func TestSparsifyAllocBudget(t *testing.T) {
	const budget, workersSlack, mallocBudget = 0.035, 1.03, 109_116
	g := graph.ConnectedGNP(64, 0.32, 5) // ≈ 640 edges, the sparsifier-twopass shape
	st := stream.WithChurn(g, 200, 6)
	cfg := Config{K: 2, Seed: 7, Estimate: EstimateConfig{J: 4}}
	allocs := map[string]uint64{}
	for _, b := range []struct {
		name  string
		build func() (*Result, error)
	}{
		{"Sparsify", func() (*Result, error) { return Sparsify(st, cfg) }},
		{"SparsifyOpts/workers=1", func() (*Result, error) { return SparsifyOpts(st, cfg, parallel.Default()) }},
		{"SparsifyOpts/workers=2", func() (*Result, error) { return SparsifyOpts(st, cfg, parallel.Default().WithWorkers(2)) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := b.build()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		provisioned := uint64(res.SpaceWords) * 8
		ratio := float64(alloc) / float64(provisioned)
		t.Logf("%s: edges %d, updates %d: allocated %d B in %d objects, provisioned %d B (%.3f×)",
			b.name, g.M(), st.Len(), alloc, mallocs, provisioned, ratio)
		if ratio >= budget {
			t.Errorf("%s allocated %.3f× its provisioned %d B, budget %.3f×", b.name, ratio, provisioned, budget)
		}
		if mallocs > mallocBudget {
			t.Errorf("%s allocated %d objects, budget %d", b.name, mallocs, mallocBudget)
		}
		allocs[b.name] = alloc
	}
	one, two := allocs["SparsifyOpts/workers=1"], allocs["SparsifyOpts/workers=2"]
	if r := float64(two) / float64(one); r > workersSlack {
		t.Errorf("workers 2 allocated %.3f× workers 1's %d B, want at most %.2f×", r, one, workersSlack)
	}
}
