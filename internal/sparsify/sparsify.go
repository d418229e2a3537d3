package sparsify

import (
	"fmt"
	"math"

	"dynstream/internal/graph"
	"dynstream/internal/hashing"
	"dynstream/internal/spanner"
	"dynstream/internal/stream"
)

// Config parameterizes the full sparsification pipeline (Algorithm 6).
type Config struct {
	// K is the spanner stretch exponent (α = 2^K). The paper chooses
	// K = sqrt(log n) for the n^{1+o(1)} bound; experiments sweep it.
	K int
	// Z is the number of independent SAMPLE invocations averaged
	// together; the paper sets Z = Θ(α² log n / ((1−δ)ε³)).
	Z int
	// H is the number of geometric sampling rates per invocation
	// (default 2·log2 n, the paper's log n²).
	H int
	// Seed selects all randomness.
	Seed uint64
	// Estimate configures the robust-connectivity oracle grid
	// (Algorithm 4); its K defaults to this Config's K.
	Estimate EstimateConfig
}

func (c Config) withDefaults(n int) Config {
	if c.K < 1 {
		c.K = 2
	}
	if c.Z == 0 {
		c.Z = 8
	}
	log2n := int(math.Ceil(math.Log2(float64(n + 1))))
	if log2n < 1 {
		log2n = 1
	}
	if c.H == 0 {
		c.H = 2 * log2n
	}
	if c.Estimate.K == 0 {
		c.Estimate.K = c.K
	}
	if c.Estimate.Seed == 0 {
		c.Estimate.Seed = hashing.Mix(c.Seed, 0xe57)
	}
	if c.Estimate.T == 0 {
		c.Estimate.T = c.H // sample rates and estimate rates aligned
	}
	c.Estimate = c.Estimate.withDefaults(n)
	return c
}

// Result is the output of Sparsify.
type Result struct {
	// Sparsifier is the weighted graph G' with L_{G'} ≈ (1±O(ε)) L_G.
	Sparsifier *graph.Graph
	// SpaceWords is the total sketch footprint (oracle grid plus all
	// Z·H spanner instances).
	SpaceWords int
	// Samples is the number of SAMPLE invocations used (= Z).
	Samples int
}

// sampleSubstream is the subsampled edge stream E_j of invocation rep,
// and sampleSpannerConfig the matching augmented-spanner configuration.
// Every pipeline builds the (rep, j) spanners from these, so both
// derivations live here, once.
func sampleSubstream(st stream.Stream, cfg Config, rep, j int) stream.Stream {
	return stream.SampledSubstream(st, hashing.Mix(cfg.Seed, 0x5a, uint64(rep)), j)
}

func sampleSpannerConfig(cfg Config, rep, j int) spanner.Config {
	return spanner.Config{
		K:                cfg.K,
		Seed:             hashing.Mix(cfg.Seed, 0x5b, uint64(rep), uint64(j)),
		CollectAugmented: true,
	}
}

// assembleSample is the decision half of Algorithm 5: given the H
// augmented spanners of one invocation (results[j-1] built over E_j),
// keep the edges whose robust connectivity matches the rate, with
// weight 2^j. Returns the weighted sample and the sketch space used.
func assembleSample(n int, est *Estimator, results []*spanner.Result) (*graph.Graph, int) {
	out := graph.New(n)
	space := 0
	for j := 1; j <= len(results); j++ {
		res := results[j-1]
		space += res.SpaceWords
		for _, e := range res.Augmented.Edges() {
			if est.QExp(e.U, e.V) == j {
				out.AddEdge(e.U, e.V, math.Pow(2, float64(j)))
			}
		}
	}
	return out, space
}

// averageSamples averages the Z weighted samples edge-wise — the
// output assembly of Algorithm 6, shared by sampleAndAverage and the
// serial reference Sparsify so the accumulation order (and hence every
// floating-point weight) is the same in both.
func averageSamples(n, z int, samples []*graph.Graph) *graph.Graph {
	acc := map[[2]int]float64{}
	for _, x := range samples {
		for _, e := range x.Edges() {
			acc[[2]int{e.U, e.V}] += e.W
		}
	}
	out := graph.New(n)
	for k, w := range acc {
		out.AddEdge(k[0], k[1], w/float64(z))
	}
	return out
}

// sampleAndAverage is the tail of Algorithm 6 shared by SparsifyOn,
// SparsifyWith and Live.QueryLive: each of the Z invocations filters
// its H augmented spanners (results[s·H + j-1] over invocation s's E_j)
// against est, and the Z samples are averaged.
func sampleAndAverage(n int, cfg Config, est *Estimator, results []*spanner.Result) *Result {
	space := est.SpaceWords()
	samples := make([]*graph.Graph, cfg.Z)
	for s := range samples {
		x, w := assembleSample(n, est, results[s*cfg.H:(s+1)*cfg.H])
		space += w
		samples[s] = x
	}
	return &Result{Sparsifier: averageSamples(n, cfg.Z, samples), SpaceWords: space, Samples: cfg.Z}
}

// sampleSpanners builds invocation rep's H augmented spanners, one
// after another, with build.
func sampleSpanners(src stream.Source, cfg Config, rep int,
	build func(stream.Source, spanner.Config) (*spanner.Result, error)) ([]*spanner.Result, error) {
	results := make([]*spanner.Result, cfg.H)
	for j := 1; j <= cfg.H; j++ {
		res, err := build(sampleSubstream(src, cfg, rep, j), sampleSpannerConfig(cfg, rep, j))
		if err != nil {
			return nil, fmt.Errorf("sparsify: sample rep=%d j=%d: %w", rep, j, err)
		}
		results[j-1] = res
	}
	return results, nil
}

// buildTwoPass is spanner.BuildTwoPass, the serial reference, as a
// sampleSpanners engine.
func buildTwoPass(sub stream.Source, cfg spanner.Config) (*spanner.Result, error) {
	return spanner.BuildTwoPass(sub, cfg)
}

// SampleOnce is Algorithm 5 (SAMPLE-AUGMENTED-SPANNER): for each rate
// 2^{-j} it builds an augmented spanner of the subsampled stream E_j and
// keeps the edges whose robust connectivity matches the rate, with
// weight 2^j. rep indexes the invocation's independent randomness.
func SampleOnce(st stream.Stream, est *Estimator, cfg Config, rep int) (*graph.Graph, int, error) {
	cfg = cfg.withDefaults(st.N())
	results, err := sampleSpanners(st, cfg, rep, buildTwoPass)
	if err != nil {
		return nil, 0, err
	}
	out, space := assembleSample(st.N(), est, results)
	return out, space, nil
}

// Sparsify is Algorithm 6 (AUGMENTED-SPANNER-SPARSIFY): it estimates
// robust connectivities, draws Z independent weighted samples, and
// returns their average — a (1±O(ε))-spectral sparsifier whp for
// appropriately scaled Z (Lemma 22). It is the serial reference the
// other pipelines are tested against, so it keeps its own Z-loop over
// SampleOnce rather than sharing their sampleAndAverage.
func Sparsify(st stream.Stream, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(st.N())
	est, err := NewEstimator(st, cfg.Estimate)
	if err != nil {
		return nil, err
	}
	space := est.SpaceWords()
	samples := make([]*graph.Graph, 0, cfg.Z)
	for s := 0; s < cfg.Z; s++ {
		x, w, err := SampleOnce(st, est, cfg, s)
		if err != nil {
			return nil, err
		}
		space += w
		samples = append(samples, x)
	}
	return &Result{Sparsifier: averageSamples(st.N(), cfg.Z, samples), SpaceWords: space, Samples: cfg.Z}, nil
}

// SparsifyWeighted extends Sparsify to weighted streams via the
// weight-class reduction (Remark 14 / Section 6 preamble): each class
// is sparsified as an unweighted graph and rescaled by its class upper
// bound, contributing the paper's log(wmax/wmin) factor.
func SparsifyWeighted(st stream.Stream, cfg Config, classBase float64) (*Result, error) {
	return SparsifyWeightedWith(st, cfg, classBase, func(sub stream.Source, ccfg Config) (*Result, error) {
		return Sparsify(sub, ccfg)
	})
}
